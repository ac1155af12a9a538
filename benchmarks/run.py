"""End-to-end benchmark of the centrex command line.

Drives the public entry point ``centrex.cli.main(argv)`` in-process, one
client in a closed loop (the next request starts when the previous one has
returned and been checked), single process and thread.  Each workload is a
fixed request list over inputs generated from ``--seed``; the list is
repeated in rounds for ``--seconds`` seconds and every answer is checked
against expectations that do not come from centrex (see ``inputs.py``).

    python3 benchmarks/run.py --workload h2-large --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # every workload

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
measures untraced rounds for the first half of the time and traced rounds
for the second, and prints the per-layer metrics of the traced rounds plus
the tracing overhead; the spans go to ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names, units and the workload list come from ``BENCHMARK.json``;
``README.md`` beside this file says what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# One BLAS thread: the program is single-threaded apart from BLAS, and on a
# shared host of few cores a second BLAS thread measures the scheduler.
# Set before NumPy is imported; the per-workload processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 25             # set-up repetitions; setup_s is their median
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail

CATALOG = ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8")
EXTEND_GROUPS = ("D4", "Q8", "D8", "Z4xZ4")   # orders 8 and 16
EXTEND_MODULUS = 8
EXTEND_DRAWS = 3        # coboundaries and random cochains per extend group
# one order-16 request (dense 4096x256 delta^2), two order-12 ones and one
# with 64 classes; with the repeat of D6 n=8 a round has five requests, an
# odd count, so req_p50_s is the latency of an order-12 request
H2_LARGE = (("D8", 2), ("D6", 8), ("D6", 2), ("Z2^3", 2))

VERIFY_CHECKS = {"antisymmetry", "bilinearity", "delta_alpha",
                 "delta_R_vs_d_alpha", "closedness", "pushforward_merge",
                 "resolution_doubling", "left_invariance",
                 "left_invariance_fd"}
PERIOD = -2                 # period of R over the SU(2) generator sphere
PERIOD_TOLERANCE = 1e-3
DEGENERATE_TOLERANCE = 1e-9


class Request:
    """One CLI call, its expected exit code and its answer check."""

    def __init__(self, label, argv, out, exit_code, check):
        self.label, self.argv, self.out = label, argv, out
        self.exit_code, self.check = exit_code, check


def _report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _failed_checks(report):
    return {c["name"] for c in report["checks"] if not c["passed"]}


# ---------------------------------------------------------------------------
# answer checks: each returns a list of problems (empty when correct)

COUNTS = ("h2_size", "z2_size", "b2_size")


def check_h2(table, n, expected):
    m = table.shape[0]

    def check(path):
        payload = _report(path)["payload"]
        got = {k: payload[k] for k in COUNTS}
        got["factors"] = inputs.primary(payload["invariant_factors"])
        want = {k: expected[k] for k in got}
        problems = [] if got == want else ["h2 %r, expected %r" % (got, want)]
        classes = payload["classes"]
        if len(classes) != expected["h2_size"]:
            problems.append("%d class representatives" % len(classes))
        cocycles = np.array([c["cocycle"] for c in classes],
                            dtype=np.int64).reshape(-1, m, m)
        if not inputs.all_cocycles(table, cocycles, n):
            problems.append("a class representative is not a cocycle")
        if any(c["fingerprint"]["order"] != n * m for c in classes):
            problems.append("an extension has order other than n*m")
        oracle = payload["oracle"]
        if oracle["feasible"] and any(oracle[k] != expected[k]
                                      for k in COUNTS):
            problems.append("oracle disagrees with UCT: %r" % (oracle,))
        return problems
    return check


def check_extension(table, n):
    m = table.shape[0]

    def check(path):
        payload = _report(path)["payload"]
        ext = np.array(payload["table"], dtype=np.int64)
        order, e = n * m, payload["identity_index"]
        ref = np.arange(order)
        if payload["order"] != order or ext.shape != (order, order):
            return ["extension order %r, expected %d"
                    % (payload["order"], order)]
        problems = []
        latin = ((np.sort(ext, axis=0) == ref[:, None]).all()
                 and (np.sort(ext, axis=1) == ref).all())
        if not latin:
            problems.append("extension table is not a Latin square")
        if not (np.array_equal(ext[e], ref)
                and np.array_equal(ext[:, e], ref)):
            problems.append("identity_index is not neutral")
        if not inputs.is_associative(ext):
            problems.append("extension table is not associative")
        # (a, g) sits at index a*m + g: the projection onto G is g = x mod m
        g = ref % m
        if not np.array_equal(ext % m, table[g[:, None], g[None, :]]):
            problems.append("projection onto G is not a homomorphism")
        return problems
    return check


def check_rejected(table, c, n):
    def check(path):
        report = _report(path)
        g, h, k = report["payload"]["violating_triple"]
        problems = []
        if inputs.coboundary_residual(table, c, n)[g, h, k] == 0:
            problems.append("reported triple (%d, %d, %d) satisfies the "
                            "cocycle condition" % (g, h, k))
        if _failed_checks(report) != {"cocycle_condition"}:
            problems.append("failed checks %r"
                            % sorted(_failed_checks(report)))
        return problems
    return check


def check_verify(negated):
    def check(path):
        report = _report(path)
        names = {c["name"] for c in report["checks"]}
        if names != VERIFY_CHECKS:
            return ["verify checks %r" % sorted(names)]
        over = {c["name"] for c in report["checks"]
                if c["residual"] is None or c["residual"] > c["tolerance"]}
        want = {"delta_R_vs_d_alpha"} if negated else set()
        problems = []
        if over != want:
            problems.append("residuals over tolerance: %r" % sorted(over))
        if _failed_checks(report) != want:
            problems.append("failed: %r" % sorted(_failed_checks(report)))
        return problems
    return check


def check_period(degenerate):
    target, tol = (0, DEGENERATE_TOLERANCE) if degenerate else (
        PERIOD, PERIOD_TOLERANCE)

    def check(path):
        rows = _report(path)["payload"]["resolutions"]
        bad = [r for r in rows if r["nearest_integer"] != target
               or abs(r["period"] - target) > tol]
        if len(rows) != 2 or bad:
            return ["periods %r, expected %d within %g"
                    % ([r["period"] for r in rows], target, tol)]
        return []
    return check


def check_identical(first):
    def check(path):
        with open(first, "rb") as a, open(path, "rb") as b:
            same = a.read() == b.read()
        return [] if same else ["repeated report differs from %s" % first]
    return check


# ---------------------------------------------------------------------------
# workloads: write the seeded inputs, return the request list

def _groups(names, seed, work):
    """Relabelled table of each named group, written to ``work``."""
    rng = np.random.default_rng([seed, 0])
    tables, paths = {}, {}
    for name in names:
        tables[name] = inputs.relabel(inputs.GROUPS[name](), rng)
        paths[name] = os.path.join(work, name.replace("^", "_") + ".grp")
        inputs.write_group(paths[name], tables[name])
    return tables, paths


def _repeat(req, work):
    out = os.path.join(work, "repeat.json")
    argv = req.argv[:-1] + [out]
    return Request("repeat " + req.label, argv, out, req.exit_code,
                   check_identical(req.out))


def _h2(name, n, tables, paths, expected, work):
    out = os.path.join(work, "h2-%s-%d.json" % (name.replace("^", "_"), n))
    return Request("h2 %s n=%d" % (name, n),
                   ["h2", "--group", paths[name], "--modulus", str(n),
                    "--out", out], out, 0,
                   check_h2(tables[name], n, expected[name, n]))


def h2_large(seed, work, expected):
    tables, paths = _groups([g for g, _ in H2_LARGE], seed, work)
    reqs = [_h2(g, n, tables, paths, expected, work) for g, n in H2_LARGE]
    return reqs + [_repeat(reqs[1], work)]


def catalog_mix(seed, work, expected):
    extra = tuple(g for g in EXTEND_GROUPS if g not in CATALOG)
    tables, paths = _groups(CATALOG + extra, seed, work)
    reqs = [_h2(g, n, tables, paths, expected, work)
            for g in CATALOG for n in (2, 3, 4, 8)]
    rng = np.random.default_rng([seed, 1])
    n = EXTEND_MODULUS
    for g in EXTEND_GROUPS:
        for i in range(EXTEND_DRAWS):
            for kind in ("coboundary", "random"):
                table = tables[g]
                if kind == "coboundary":
                    c = inputs.coboundary(table, n, rng)
                    code, check = 0, check_extension(table, n)
                else:
                    c = inputs.non_cocycle(table, n, rng)
                    code, check = 1, check_rejected(table, c, n)
                stem = "%s-%s-%d" % (g, kind, i)
                coc = os.path.join(work, stem + ".coc")
                out = os.path.join(work, stem + ".json")
                inputs.write_cochain(coc, c, n)
                reqs.append(Request(
                    "extend %s %s" % (g, kind),
                    ["extend", "--group", paths[g], "--cochain", coc,
                     "--modulus", str(n), "--out", out], out, code, check))
    first16 = next(r for r in reqs if r.label == "extend D8 coboundary")
    return reqs + [_repeat(first16, work)]


def loop_certify(seed, work, expected):
    def req(label, argv, code, check):
        out = os.path.join(work, label.replace(" ", "-") + ".json")
        return Request(label, argv + ["--out", out], out, code, check)

    s = str(seed)
    reqs = [
        req("verify dim2", ["verify", "--dim", "2", "--trials", "100",
                            "--seed", s], 0, check_verify(False)),
        req("verify dim3", ["verify", "--dim", "3", "--trials", "100",
                            "--seed", s], 0, check_verify(False)),
        req("verify negate-alpha", ["verify", "--dim", "2", "--trials", "5",
                                    "--seed", s, "--negate-alpha"], 1,
            check_verify(True)),
        req("period 64x64", ["period", "--grid", "64x64"], 0,
            check_period(False)),
        req("period degenerate", ["period", "--grid", "8x8", "--degenerate"],
            0, check_period(True)),
        # seed-independent, so req_p50_s (the 4th of 7) does not vary by seed
        req("period 16x16", ["period", "--grid", "16x16"], 0,
            check_period(False)),
    ]
    return reqs + [_repeat(reqs[2], work)]


WORKLOADS = {"h2-large": h2_large, "catalog-mix": catalog_mix,
             "loop-certify": loop_certify}


# ---------------------------------------------------------------------------
# running

def import_program():
    """Import centrex afresh from the checkout's ``src``; return its cli."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "centrex", "cli.py")):
        raise RuntimeError("no centrex sources under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [k for k in sys.modules
                 if k == "centrex" or k.startswith("centrex.")]:
        del sys.modules[name]
    cli = importlib.import_module("centrex.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError("imported centrex from %s" % cli.__file__)
    return cli


def setup(workload, seed, work, expected):
    """Import the program and write the inputs SETUPS times; time each."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        os.makedirs(work)
        cli = import_program()
        requests = WORKLOADS[workload](seed, work, expected)
        times.append(perf_counter() - start)
    return cli, requests, statistics.median(times)


def run_round(cli, requests, tracer=None):
    """Issue every request once; return latencies and failure messages.

    ``cli.main`` is looked up per request so that the traced run goes
    through the wrapper the tracer installed.
    """
    latencies, failures = [], []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                code = cli.main(req.argv)
            except Exception:  # a crash is a failed request, not a crash here
                code = traceback.format_exc()
            latencies.append(perf_counter() - start)
        problems = []
        if code != req.exit_code:
            problems.append("exit %r, expected %d" % (code, req.exit_code))
        else:
            try:
                problems += req.check(req.out)
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                problems.append("unreadable report: %r" % (exc,))
        if problems:
            failures.append("%s: %s" % (req.label, "; ".join(problems)))
    return latencies, failures


def tail(values):
    """(value, percentile) with TAIL_BEYOND samples above it, or None when
    that percentile would not lie above the median."""
    ordered = sorted(values)
    idx = len(ordered) - TAIL_BEYOND - 1
    if 2 * (idx + 1) <= len(ordered):
        return None
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run_workload(workload, seed, seconds, trace, spec):
    expected = inputs.load_expected()
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
    try:
        cli, requests, setup_s = setup(workload, seed, work, expected)
        return measure(cli, requests, setup_s, workload, seed, seconds,
                       trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))


class Rounds:
    """Rounds of the request list, started while the time budget allows."""

    def __init__(self, cli, requests):
        self.cli, self.requests = cli, requests
        self.started = perf_counter()
        self.latencies = []     # per round: latency of each request
        self.failures = []
        self.layers = []        # per traced round: (layer metrics, attributed)

    def run(self, budget, tracer=None):
        """At least one round; another only if it should end within budget.
        Returns the wall time of each round: the sum of its latencies."""
        durations, walls = [], []
        while True:
            if tracer is not None:
                tracer.reset_round()
            start = perf_counter()
            lat, fail = run_round(self.cli, self.requests, tracer)
            durations.append(perf_counter() - start)
            self.latencies.append(lat)
            self.failures.extend(fail)
            walls.append(sum(lat))
            if tracer is not None:
                self.layers.append((tracer.layer_metrics(),
                                    tracer.attributed_s()))
            if perf_counter() - self.started + max(durations) > budget:
                return walls

    def per_request(self):
        """Median latency of each request over the rounds, by label."""
        return [(req.label, statistics.median(r[i] for r in self.latencies))
                for i, req in enumerate(self.requests)]


def measure(cli, requests, setup_s, workload, seed, seconds, trace, spec):
    rounds = Rounds(cli, requests)
    if trace:
        plain = rounds.run(seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        traced = rounds.run(seconds, tracer)
    else:
        plain, traced = rounds.run(seconds), []
    samples = [x for lat in rounds.latencies for x in lat]
    failures = rounds.failures

    print("workload %s, seed %d: %d untraced and %d traced rounds of %d "
          "requests; %d of %d failed (failed_ratio %.4f)"
          % (workload, seed, len(plain), len(traced), len(requests),
             len(failures), len(samples), len(failures) / len(samples)))
    for msg in failures[:20]:
        print("  FAILED %s" % msg)
    slowest = sorted(rounds.per_request(), key=lambda kv: -kv[1])
    for label, latency in slowest[:6]:
        print("  latency %-30s %.4f s" % (label, latency))

    if trace:
        metrics = traced_metrics(plain, traced, rounds.layers)
        for i, req in enumerate(requests):
            print("  request %-30s %s" % (req.label, tracer.headline(i)))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-seed%d.jsonl.gz"
                            % (workload, seed))
        tracer.write(path, {"workload": workload, "seed": seed,
                            "requests": [r.label for r in requests]})
        print("  spans: %d written to %s" % (len(tracer.spans),
                                            os.path.relpath(path, ROOT)))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain),
            "req_p50_s": statistics.median(samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        worst = tail(samples)
        if worst is not None:
            print("  req_tail_s %.6f s at p%.1f of %d samples"
                  % (worst[0], worst[1], len(samples)))

    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        raise RuntimeError("metrics %r do not match BENCHMARK.json"
                           % sorted(set(metrics) ^ set(units)))
    for name in sorted(metrics):
        value = metrics[name]
        shown = "%d" % value if value == int(value) else "%.6g" % value
        print("  %-36s %s %s" % (name, shown, units[name]))
    return {"correct": not failures, "attempted": len(samples),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def traced_metrics(plain, traced, layers):
    """Median over traced rounds of every layer metric, plus the overhead
    (traced minus untraced round wall time) and the request time no span
    accounts for."""
    out = {k: statistics.median(m[k] for m, _ in layers) for k in layers[0][0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        plain)
    out["trace.unattributed_s"] = statistics.median(
        w - a for w, (_, a) in zip(traced, layers))
    return out


def run_all(args):
    """Each workload in a fresh process, so peak RSS stays separate."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("workload %s exited with %d" % (name, proc.returncode))
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, spec)
    except RuntimeError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
