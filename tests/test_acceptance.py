"""Acceptance suite: ten criteria, one test each, one printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and the recorded period integer.
"""

import numpy as np
import pytest

from centrex.cli import main
from centrex.cochains import Cochain, delta, delta_squared, random_cochain
from centrex.cohomology import (cocycle_space, cohomologous,
                                exhaustive_second_cohomology,
                                second_cohomology)
from centrex.errors import CocycleError
from centrex.extensions import (build_extension, extension_fingerprint,
                                is_table_isomorphism, pair_isomorphism)
from centrex.forms import (d_R_numeric, d_alpha_numeric, delta_form_R,
                           delta_form_alpha, eval_R, eval_alpha,
                           left_invariance_check, left_invariance_fd_residual)
from centrex.groups import (catalog, cyclic, dihedral, fingerprint,
                            format_group_table, klein_four, quaternion8,
                            symmetric3)
from centrex.loops import random_smooth_loop, random_smooth_tangent
from centrex.rng import generator
from centrex.verify import run_period_check

CATALOG = {"Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4),
           "Z2xZ2": klein_four(), "S3": symmetric3()}

DEGREE1_EXHAUSTIVE_CAP = 4096


def _verdict(number, label, passed):
    print("ACCEPTANCE %2d %-46s %s" % (number, label,
                                       "PASS" if passed else "FAIL"))
    assert passed, "criterion %d failed: %s" % (number, label)


def test_criterion_01_delta_squared_is_zero():
    ok = True
    for group in CATALOG.values():
        m = group.order
        for n in (2, 3, 4):
            for value in range(n):  # exhaustive degree 0
                c = Cochain(group, n, 0, np.array(value))
                ok &= delta_squared(c).is_zero
            if n**m <= DEGREE1_EXHAUSTIVE_CAP:  # exhaustive degree 1
                for code in range(n**m):
                    vals = [(code // n**i) % n for i in range(m)]
                    ok &= delta_squared(Cochain(group, n, 1, vals)).is_zero
            rng = generator(1, stream=group.order * 10 + n)
            for _ in range(200):  # seeded random degree 2
                ok &= delta_squared(random_cochain(group, n, 2, rng)).is_zero
    _verdict(1, "delta^2 = 0 (exhaustive deg 0-1, 200 random deg 2)", ok)


def test_criterion_02_cocycle_iff_associative():
    ok = True
    for group in (CATALOG["Z2"], CATALOG["Z2xZ2"]):
        m = group.order
        width = m * m
        for code in range(2**width):
            vals = [(code >> i) & 1 for i in range(width)]
            c = Cochain(group, 2, 2, np.array(vals).reshape(m, m))
            is_cocycle = delta(c).is_zero
            try:
                ext = build_extension(c)
                built = True
                ok &= ext.order == 2 * m
            except CocycleError:
                built = False
            ok &= built == is_cocycle
    _verdict(2, "build_extension succeeds iff delta(c) = 0 (2^4 and 2^16)", ok)


def test_criterion_03_classification_concordance():
    ok = True
    for name, n in (("Z2", 2), ("Z3", 3), ("Z2xZ2", 2)):
        group = CATALOG[name]
        h2 = second_cohomology(group, n)
        oracle = exhaustive_second_cohomology(group, n)
        ok &= (h2.z2_size, h2.b2_size, h2.size) == \
            (oracle.z2_size, oracle.b2_size, oracle.h2_size)
        keys = sorted(oracle.key(rep) for rep in h2.representatives)
        ok &= keys == oracle.class_keys
    fps_z2 = [extension_fingerprint(rep)
              for rep in second_cohomology(CATALOG["Z2"], 2).representatives]
    ok &= fingerprint(cyclic(4)) in fps_z2
    ok &= fingerprint(klein_four()) in fps_z2
    fps_v4 = [extension_fingerprint(rep)
              for rep in second_cohomology(CATALOG["Z2xZ2"], 2).representatives]
    ok &= fps_v4.count(fingerprint(quaternion8())) == 1
    ok &= fps_v4.count(fingerprint(dihedral(4))) >= 1
    _verdict(3, "linear-algebra H^2 = oracle H^2 (+ Z4/V4/Q8 classes)", ok)


def test_criterion_04_cohomologous_gives_isomorphic_tables():
    ok = True
    combos = [(CATALOG["Z2"], 2), (CATALOG["Z2xZ2"], 2), (CATALOG["Z3"], 3),
              (CATALOG["Z4"], 4), (CATALOG["S3"], 2)]
    spaces = {g.name: cocycle_space(g, n) for g, n in combos}
    for trial in range(50):
        group, n = combos[trial % len(combos)]
        rng = generator(4, stream=trial)
        c1 = spaces[group.name].sample(rng)
        d = random_cochain(group, n, 1, rng)
        c2 = c1 + delta(d)
        witness = cohomologous(c2, c1)
        ok &= witness is not None
        perm = pair_isomorphism(c1, c2, witness)
        ok &= is_table_isomorphism(build_extension(c1), build_extension(c2),
                                   perm)
    _verdict(4, "witness map matches extension tables (50 pairs)", ok)


def test_criterion_05_delta_alpha_vanishes():
    worst = 0.0
    for dim in (2, 3):
        for trial in range(100):
            point = tuple(random_smooth_loop(5, dim, 128, 3,
                                             stream=8 * trial + s)
                          for s in range(3))
            tangents = tuple(random_smooth_tangent(5, dim, 128, 3,
                                                   stream=8 * trial + 3 + s)
                             for s in range(3))
            worst = max(worst, abs(delta_form_alpha(point, tangents)))
    print("  max |delta alpha| = %.3e" % worst)
    _verdict(5, "delta(alpha) = 0 within 1e-9 (100 triples, n = 2 and 3)",
             worst <= 1e-9)


def test_criterion_06_delta_R_equals_d_alpha():
    ok = True
    worst_h, worst_h2 = 0.0, 0.0
    for trial in range(100):
        g1 = random_smooth_loop(6, 2, 128, 3, stream=8 * trial)
        g2 = random_smooth_loop(6, 2, 128, 3, stream=8 * trial + 1)
        xi = tuple(random_smooth_tangent(6, 2, 128, 3, stream=8 * trial + 2 + s)
                   for s in range(2))
        eta = tuple(random_smooth_tangent(6, 2, 128, 3,
                                          stream=8 * trial + 4 + s)
                    for s in range(2))
        dr = delta_form_R((g1, g2), xi, eta)
        da = d_alpha_numeric((g1, g2), xi, eta, h=1e-3)
        da_half = d_alpha_numeric((g1, g2), xi, eta, h=5e-4)
        ok &= abs(dr - da) <= 5e-5 * (1 + abs(dr))
        worst_h = max(worst_h, abs(dr - da))
        worst_h2 = max(worst_h2, abs(dr - da_half))
    shrink = worst_h / max(worst_h2, 1e-300)
    print("  max residual %.3e at h, %.3e at h/2 (shrink %.2fx)"
          % (worst_h, worst_h2, shrink))
    ok &= shrink >= 3.0
    _verdict(6, "delta(R) = d(alpha) within 5e-5*(1+|dR|), O(h^2)", ok)


def test_criterion_07_R_is_closed():
    worst = 0.0
    for trial in range(50):
        g = random_smooth_loop(7, 2, 128, 3, stream=5 * trial)
        x, y, z = (random_smooth_tangent(7, 2, 128, 3, stream=5 * trial + 1 + s)
                   for s in range(3))
        worst = max(worst, abs(d_R_numeric(g, x, y, z, h=1e-3)))
    print("  max |dR| = %.3e" % worst)
    _verdict(7, "d(R) = 0 within 1e-5 (50 trials)", worst <= 1e-5)


def test_criterion_08_antisymmetry_linearity_invariance():
    worst_anti, worst_lin, worst_exact, worst_fd = 0.0, 0.0, 0.0, 0.0
    for trial in range(100):
        x = random_smooth_tangent(8, 2, 128, 3, stream=8 * trial)
        y = random_smooth_tangent(8, 2, 128, 3, stream=8 * trial + 1)
        z = random_smooth_tangent(8, 2, 128, 3, stream=8 * trial + 2)
        g1 = random_smooth_loop(8, 2, 128, 3, stream=8 * trial + 3)
        g2 = random_smooth_loop(8, 2, 128, 3, stream=8 * trial + 4)
        k = random_smooth_loop(8, 2, 128, 3, stream=8 * trial + 5)
        worst_anti = max(worst_anti, abs(eval_R(x, y) + eval_R(y, x)))
        rng = generator(8, stream=8 * trial + 6)
        a, b = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        worst_lin = max(
            worst_lin,
            abs(eval_R(a * x + b * y, z) - a * eval_R(x, z) - b * eval_R(y, z)),
            abs(eval_alpha(g2, a * x + b * y) - a * eval_alpha(g2, x)
                - b * eval_alpha(g2, y)))
        worst_exact = max(worst_exact,
                          left_invariance_check(k, g1, g2, x),
                          abs(eval_R(x, y) - eval_R(x, y)))
        worst_fd = max(worst_fd, left_invariance_fd_residual(k, g1, g2, x))
    print("  antisym %.2e | linearity %.2e | exact %.1f | fd %.2e"
          % (worst_anti, worst_lin, worst_exact, worst_fd))
    ok = (worst_anti <= 1e-11 and worst_lin <= 1e-12
          and worst_exact == 0.0 and worst_fd <= 1e-9)
    _verdict(8, "antisymmetry 1e-11, linearity 1e-12, invariance", ok)


def test_criterion_09_period_integrality():
    results, check = run_period_check(grid=(64, 64), samples=128)
    integers = [r["nearest_integer"] for r in results]
    deviations = [r["deviation"] for r in results]
    print("  period %.8f and %.8f -> integer %d (deviations %.2e, %.2e)"
          % (results[0]["period"], results[1]["period"], integers[0],
             deviations[0], deviations[1]))
    ok = (check.passed and integers[0] == integers[1] != 0
          and max(deviations) <= 1e-3)
    _verdict(9, "period of R integral: same nonzero integer at 2 grids", ok)


def test_criterion_10_verify_reports_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    flags = ["verify", "--trials", "5", "--samples", "64", "--seed", "3"]
    code1 = main(flags + ["--out", str(out1)])
    code2 = main(flags + ["--out", str(out2)])
    ok = (code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes())
    _verdict(10, "verify runs are byte-identical", ok)
