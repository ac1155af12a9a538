"""Command line interface.

Subcommands:

* ``h2`` (alias ``classify``): classify central extensions of a group
  table file by Z/n: cocycle/coboundary counts, one representative per
  cohomology class, extension fingerprints, the full bar differential on
  every Z^2 generator and representative, and agreement with the
  exhaustive oracle whenever the oracle is feasible.
* ``extend``: build the extension defined by a cochain file, or report
  the violating triple if the cocycle condition fails.
* ``verify``: run the seeded loop-form battery (antisymmetry,
  bilinearity, delta alpha, delta R vs d alpha, closedness, pushforward
  cross-check, resolution doubling, left invariance).
* ``period``: integrate R over the SU(2) generator family at the given
  and doubled grid resolutions and check integrality.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input
error, 3 capacity guard exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .cochains import delta_stack, load_cochain
from .cohomology import (check_capacity, exhaustive_second_cohomology,
                         second_cohomology)
from .errors import CapacityError, CocycleError
from .extensions import build_extension
from .groups import load_group, table_fingerprint
from .report import build_report, file_digest, human_summary, write_report
from .verify import CheckResult, run_gamma_battery, run_period_check

# delta entries per stacked call of the Z^2 certificate (8 MiB of int64)
_CERTIFICATE_ENTRIES = 2**20


def _parser():
    parser = argparse.ArgumentParser(
        prog="centrex",
        description="central extensions of finite groups and loop-group "
                    "cocycle certification")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("h2", "classify"):
        p = sub.add_parser(name, help="classify central extensions of a "
                                      "group table by Z/n")
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
    p.add_argument("--step", type=float, default=1e-3,
                   help="central-difference step h")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--negate-alpha", action="store_true",
                   help="test hook: flip the sign of alpha "
                        "(delta R = d alpha must then fail)")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("period", help="period of R over the SU(2) "
                                      "generator family")
    p.add_argument("--dim", type=int, default=2,
                   help="matrix dimension (the generator family needs 2)")
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
    """Whether delta, over all m^3 triples, vanishes on each Z^2 generator
    and then on each representative of ``h2``.  This certifies Z^2 apart
    from the generator rows of delta^2 that computed it; the cochains go
    through ``delta_stack`` in stacks."""
    cochains = h2.z2_generators + h2.representatives
    step = max(1, _CERTIFICATE_ENTRIES // h2.group.order**3)
    closed = []
    for i in range(0, len(cochains), step):
        values = np.stack([c.values for c in cochains[i:i + step]])
        residual = delta_stack(h2.group, h2.modulus, 2, values)
        closed.append(~residual.reshape(len(values), -1).any(axis=1))
    return np.concatenate(closed)


def _cmd_h2(args, command):
    group = load_group(args.group)
    n = args.modulus
    h2 = second_cohomology(group, n)
    consistent = h2.z2_size == h2.b2_size * h2.size
    checks = [CheckResult(
        name="counts_consistent",
        residual=0.0 if consistent else 1.0,
        tolerance=0.0,
        passed=consistent,
        trials=1,
    )]
    closed = _full_delta_zero(h2)
    checks.append(CheckResult(
        name="z2_full_delta",
        residual=float(np.count_nonzero(~closed)),
        tolerance=0.0,
        passed=bool(closed.all()),
        trials=len(closed),
    ))
    classes = []
    for rep, cocycle in zip(h2.representatives,
                            closed[len(h2.z2_generators):]):
        if cocycle:
            ext = build_extension(rep)
            fp = _fingerprint_dict(table_fingerprint(ext.table, ext.identity))
        else:
            fp = None
        classes.append({
            "cocycle": [int(v) for v in rep.values.reshape(-1)],
            "fingerprint": fp,
        })
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
        checks.append(CheckResult(
            name="oracle_agreement",
            residual=0.0 if agree else 1.0,
            tolerance=0.0,
            passed=bool(agree),
            trials=1,
        ))
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
    return build_report(command, params, checks, payload, inputs)


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
        checks = [CheckResult(name="cocycle_condition", residual=1.0,
                              tolerance=0.0, passed=False, trials=1)]
        payload = {"violating_triple": list(exc.triple)}
        return build_report("extend", params, checks, payload, inputs)
    fp = table_fingerprint(ext.table, ext.identity)
    checks = [
        CheckResult(name="cocycle_condition", residual=0.0, tolerance=0.0,
                    passed=True, trials=1),
        CheckResult(name="group_axioms", residual=0.0, tolerance=0.0,
                    passed=True, trials=1),
    ]
    payload = {
        "order": ext.order,
        "identity_index": ext.identity,
        "table": [[int(v) for v in row] for row in ext.table],
        "fingerprint": _fingerprint_dict(fp),
    }
    return build_report("extend", params, checks, payload, inputs)


def _cmd_verify(args):
    gamma = run_gamma_battery(dim=args.dim, samples=args.samples,
                              modes=args.modes, trials=args.trials,
                              seed=args.seed, step=args.step,
                              alpha_sign=-1.0 if args.negate_alpha else 1.0)
    checks = gamma.checks if args.trials > 0 else []
    params = {
        "dim": args.dim, "samples": args.samples, "modes": args.modes,
        "seed": args.seed, "step": args.step, "trials": args.trials,
        "negate_alpha": bool(args.negate_alpha),
    }
    return build_report("verify", params, checks, {})


def _cmd_period(args):
    if args.dim != 2:
        raise ValueError("the generator family lives in SU(2); --dim must be 2")
    grid = _parse_grid(args.grid)
    results, check = run_period_check(grid=grid, samples=args.samples,
                                      degenerate=args.degenerate)
    params = {
        "dim": args.dim, "samples": args.samples,
        "grid": "%dx%d" % grid, "degenerate": bool(args.degenerate),
    }
    payload = {
        "resolutions": results,
        "convention": "reported values are periods of the real form R; "
                      "the bundle curvature is 2*pi*i*R, so integrality "
                      "means the reported period is an integer",
    }
    return build_report("period", params, [check], payload)


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
        if args.command in ("h2", "classify"):
            report = _cmd_h2(args, args.command)
        elif args.command == "extend":
            report = _cmd_extend(args)
        elif args.command == "verify":
            report = _cmd_verify(args)
        else:
            report = _cmd_period(args)
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return 3
    except CocycleError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
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
