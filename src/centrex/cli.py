"""Command line interface.

Subcommands:

* ``h2``: classify central extensions of a group table file by Z/n:
  cocycle/coboundary counts, one representative per cohomology class,
  extension fingerprints, the full bar differential on every Z^2
  generator, each representative as its weighted sum of them, and
  agreement with the exhaustive oracle whenever the oracle is feasible.
* ``extend``: build the extension defined by a cochain file, or report
  the violating triple if the cocycle condition fails.
* ``verify``: run the seeded loop-form battery (antisymmetry,
  bilinearity, delta alpha, delta R vs the closed-form d alpha, closedness
  through the closed-form d R, pushforward cross-check, resolution
  doubling, left invariance and its chart-level cross-check).
* ``period``: integrate R over the SU(2) generator family at the given
  and doubled grid resolutions, check integrality, and check the Gram
  quadrature on one row against full evaluation of R.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input
error, 3 capacity guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .cochains import delta_stack, load_cochain
from .cohomology import (check_capacity, exhaustive_second_cohomology,
                         second_cohomology)
from .errors import CapacityError, CocycleError
from .extensions import build_extension, extension_fingerprints
from .groups import load_group
from .report import (build_report, file_digest, human_summary, judged,
                     write_report)
from .verify import run_gamma_battery, run_period_checks

# entries per stacked step of the Z^2 certificate
_CERTIFICATE_ENTRIES = 2**20


@functools.cache
def _parser():
    """The argument parser, built on the first call and kept for the
    process: every call of ``main`` parses with the same one."""
    parser = argparse.ArgumentParser(
        prog="centrex",
        description="central extensions of finite groups and loop-group "
                    "cocycle certification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("h2", help="classify central extensions of a group "
                                  "table by Z/n")
    p.add_argument("--group", required=True, help="group table file")
    p.add_argument("--modulus", type=int, required=True,
                   help="coefficient modulus n")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("extend", help="build the extension of a cochain file")
    p.add_argument("--group", required=True, help="group table file")
    p.add_argument("--cochain", required=True, help="degree-2 cochain file")
    p.add_argument("--modulus", type=int,
                   help="expected modulus (cross-checked against the file)")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("verify", help="run the loop-form identity battery")
    p.add_argument("--dim", type=int, default=2, help="matrix dimension n")
    p.add_argument("--samples", type=int, default=128,
                   help="loop samples N (power of two)")
    p.add_argument("--modes", type=int, default=3,
                   help="Fourier modes in the synthesized inputs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--negate-alpha", action="store_true",
                   help="test hook: flip the sign of alpha "
                        "(delta R = d alpha must then fail)")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("period", help="period of R over the SU(2) "
                                      "generator family")
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--grid", default="64x64",
                   help="u x phi grid, e.g. 64x64")
    p.add_argument("--degenerate", action="store_true",
                   help="test hook: constant family, period must vanish")
    p.add_argument("--out", help="write the JSON report here")

    return parser


def _fingerprint_dict(fp):
    return {
        "order": fp.order,
        "element_orders": list(fp.element_orders),
        "is_abelian": fp.is_abelian,
        "center_order": fp.center_order,
        "derived_order": fp.derived_order,
    }


def _full_delta_zero(h2):
    """Whether each Z^2 generator and then each representative of ``h2``
    is certified closed: the full delta, over all m^3 triples, vanishes
    on each generator, and a representative is its weighted sum of
    closed generators in all m^2 entries, since delta is linear.  This
    certifies Z^2 apart from the generator rows of delta^2 that computed
    it.  The float64 product is exact: its entries are below n^2 times
    the number of generators."""
    m, n = h2.group.order, h2.modulus
    gens = np.array([c.values for c in h2.z2_generators],
                    dtype=np.int64).reshape(-1, m * m)
    step = max(1, _CERTIFICATE_ENTRIES // m**3)
    closed = np.ones(len(gens), dtype=bool)
    for i in range(0, len(gens), step):
        residual = delta_stack(h2.group, n, 2,
                               gens[i:i + step].reshape(-1, m, m))
        closed[i:i + step] = ~residual.reshape(len(residual), -1).any(axis=1)
    weights = h2.weights
    certified = ~(weights[:, ~closed] % n).any(axis=1)
    basis = gens.astype(np.float64)
    step = max(1, _CERTIFICATE_ENTRIES // (m * m))
    for i in range(0, len(weights), step):
        combined = np.mod(weights[i:i + step].astype(np.float64) @ basis, n)
        reps = np.array([c.values.reshape(-1)
                         for c in h2.representatives[i:i + step]])
        certified[i:i + step] &= (combined == reps).all(axis=1)
    return np.concatenate([closed, certified])


def _cmd_h2(args):
    group = load_group(args.group)
    n = args.modulus
    h2 = second_cohomology(group, n)
    closed = _full_delta_zero(h2)
    checks = [
        judged("counts_consistent",
               h2.z2_size != h2.b2_size * h2.size, 0.0),
        judged("z2_full_delta", np.count_nonzero(~closed), 0.0, len(closed)),
    ]
    # z2_full_delta has just certified each rep; a fingerprint is reported
    # only where it did
    fps = extension_fingerprints(
        group, n, [rep.values for rep in h2.representatives])
    classes = [{
        "cocycle": rep.values.reshape(-1).tolist(),
        "fingerprint": _fingerprint_dict(fp) if cocycle else None,
    } for rep, fp, cocycle in zip(h2.representatives, fps,
                                  closed[len(h2.z2_generators):])]
    try:
        oracle = exhaustive_second_cohomology(group, n)
    except CapacityError:
        oracle_payload = {"feasible": False}
    else:
        rep_keys = sorted(oracle.key(rep) for rep in h2.representatives)
        agree = (oracle.z2_size == h2.z2_size
                 and oracle.b2_size == h2.b2_size
                 and oracle.h2_size == h2.size
                 and rep_keys == oracle.class_keys)
        checks.append(judged("oracle_agreement", not agree, 0.0))
        oracle_payload = {
            "feasible": True,
            "z2_size": oracle.z2_size,
            "b2_size": oracle.b2_size,
            "h2_size": oracle.h2_size,
        }
    payload = {
        "group": {"name": group.name, "order": group.order},
        "modulus": n,
        "z2_size": h2.z2_size,
        "b2_size": h2.b2_size,
        "h2_size": h2.size,
        "invariant_factors": h2.invariant_factors,
        "classes": classes,
        "oracle": oracle_payload,
    }
    params = {"group": args.group, "modulus": n}
    inputs = {"group": file_digest(args.group)}
    return build_report("h2", params, checks, payload, inputs)


def _cmd_extend(args):
    group = load_group(args.group)
    cochain = load_cochain(args.cochain, group)
    if cochain.degree != 2:
        raise ValueError("extend requires a degree-2 cochain, file has "
                         "degree %d" % cochain.degree)
    if args.modulus is not None and args.modulus != cochain.modulus:
        raise ValueError("--modulus %d disagrees with cochain file modulus %d"
                         % (args.modulus, cochain.modulus))
    check_capacity(group, cochain.modulus)
    params = {"group": args.group, "cochain": args.cochain,
              "modulus": cochain.modulus}
    inputs = {"group": file_digest(args.group),
              "cochain": file_digest(args.cochain)}
    try:
        ext = build_extension(cochain)
    except CocycleError as exc:
        checks = [judged("cocycle_condition", 1, 0.0)]
        payload = {"violating_triple": list(exc.triple)}
        return build_report("extend", params, checks, payload, inputs)
    fp, = extension_fingerprints(group, cochain.modulus, cochain.values)
    checks = [judged("cocycle_condition", 0, 0.0)]
    payload = {
        "order": ext.order,
        "identity_index": ext.identity,
        "table": ext.table.tolist(),
        "fingerprint": _fingerprint_dict(fp),
    }
    return build_report("extend", params, checks, payload, inputs)


def _cmd_verify(args):
    checks = run_gamma_battery(dim=args.dim, samples=args.samples,
                               modes=args.modes, trials=args.trials,
                               seed=args.seed,
                               alpha_sign=-1.0 if args.negate_alpha else 1.0)
    params = {
        "dim": args.dim, "samples": args.samples, "modes": args.modes,
        "seed": args.seed, "trials": args.trials,
        "negate_alpha": bool(args.negate_alpha),
    }
    return build_report("verify", params, checks, {})


def _cmd_period(args):
    grid = _parse_grid(args.grid)
    results, checks = run_period_checks(grid=grid, samples=args.samples,
                                        degenerate=args.degenerate)
    params = {
        "samples": args.samples,
        "grid": "%dx%d" % grid, "degenerate": bool(args.degenerate),
    }
    payload = {
        "resolutions": results,
        "convention": "reported values are periods of the real form R; "
                      "the bundle curvature is 2*pi*i*R, so integrality "
                      "means the reported period is an integer",
    }
    return build_report("period", params, checks, payload)


def _parse_grid(text):
    for sep in ("x", "X", "*", ","):
        if sep in text:
            left, _, right = text.partition(sep)
            try:
                return int(left), int(right)
            except ValueError:
                break
    raise ValueError("cannot parse grid %r; expected e.g. 64x64" % text)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        if args.command == "h2":
            report = _cmd_h2(args)
        elif args.command == "extend":
            report = _cmd_extend(args)
        elif args.command == "verify":
            report = _cmd_verify(args)
        else:
            report = _cmd_period(args)
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if getattr(args, "out", None):
        write_report(report, args.out)
    print(human_summary(report))
    print("wall-clock: %.3f s" % elapsed)
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
