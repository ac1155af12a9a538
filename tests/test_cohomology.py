import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import centrex
from centrex.cochains import Cochain, delta, random_cochain
from centrex.cohomology import (coboundary_space, cocycle_space,
                                cohomologous, delta_matrix,
                                exhaustive_coboundaries, exhaustive_cocycles,
                                exhaustive_second_cohomology, kernel_mod,
                                second_cohomology, smith_normal_form,
                                solve_mod)
from centrex.errors import CapacityError
from centrex.groups import cyclic, dihedral, klein_four, symmetric3
from centrex.rng import generator

Z2 = cyclic(2)
Z3 = cyclic(3)
V4 = klein_four()
S3 = symmetric3()


def test_delta_matrix_matches_delta_operator():
    rng = generator(3)
    for group, n in ((Z3, 4), (V4, 3), (S3, 2)):
        A = delta_matrix(group, 2)
        c = random_cochain(group, n, 2, rng)
        via_matrix = np.mod(A @ c.values.reshape(-1), n)
        assert np.array_equal(via_matrix, delta(c).values.reshape(-1))


def test_smith_normal_form_transforms():
    rng = generator(9)
    for _ in range(20):
        A = rng.integers(-4, 5, size=(rng.integers(2, 7), rng.integers(2, 7)))
        res = smith_normal_form(A, track_u=True)
        D = res.U @ A @ res.V
        expect = np.zeros_like(D)
        for i, d in enumerate(res.diag):
            expect[i, i] = d
        assert np.array_equal(D, expect)
        assert np.array_equal(res.V @ res.Vinv, np.eye(A.shape[1], dtype=int))
        assert np.array_equal(res.U @ res.Uinv, np.eye(A.shape[0], dtype=int))


def test_smith_normal_form_large_entries():
    # entries past the int64 comfort zone promote to exact python ints
    A = np.array([[2**21, 3], [5, 2**21 + 1]], dtype=np.int64)
    res = smith_normal_form(A, track_u=True)
    D = res.U.astype(object) @ A.astype(object) @ res.V.astype(object)
    assert D[0, 1] == D[1, 0] == 0
    det = 2**21 * (2**21 + 1) - 15
    assert abs(int(D[0, 0]) * int(D[1, 1])) == abs(det)


def test_kernel_mod_counts_by_enumeration():
    rng = generator(13)
    for n in (2, 3, 4, 6):
        A = rng.integers(-3, 4, size=(4, 3))
        size, gens, orders, _ = kernel_mod(A, n)
        brute = 0
        for x0 in range(n):
            for x1 in range(n):
                for x2 in range(n):
                    if not np.mod(A @ np.array([x0, x1, x2]), n).any():
                        brute += 1
        assert size == brute
        for g, o in zip(gens, orders):
            assert not np.mod(A @ g, n).any()
            assert np.mod(o * g, n).max(initial=0) == 0


def test_solve_mod_roundtrip_and_unsolvable():
    rng = generator(31)
    for n in (2, 4, 6):
        A = rng.integers(-3, 4, size=(5, 3))
        x = rng.integers(0, n, size=3)
        b = np.mod(A @ x, n)
        got = solve_mod(A, b, n)
        assert got is not None
        assert np.array_equal(np.mod(A @ got, n), b)
    assert solve_mod(np.array([[2]]), np.array([1]), 4) is None


def test_z2_mod2_space_sizes():
    zs = cocycle_space(Z2, 2)
    bs = coboundary_space(Z2, 2)
    oracle = exhaustive_second_cohomology(Z2, 2)
    # the exhaustive filter over all 16 maps is the ground truth
    assert zs.size == oracle.z2_size == 4
    assert bs.size == oracle.b2_size == 2
    assert len(exhaustive_cocycles(Z2, 2)) == 4


def test_coboundary_space_n1_and_z3():
    assert coboundary_space(S3, 1).size == 1
    bs = coboundary_space(Z3, 3)
    assert bs.size == len(exhaustive_coboundaries(Z3, 3)) == 9
    for gen in bs.generators:
        assert gen.degree == 2


def test_cocycle_space_generators_span():
    zs = cocycle_space(V4, 2)
    for gen in zs.generators:
        assert delta(gen).is_zero
    rng = generator(7)
    for _ in range(10):
        assert delta(zs.sample(rng)).is_zero


def test_second_cohomology_matches_oracle():
    # exhaustive enumeration is feasible up to n^(m^2) = 2^16
    for group, n in ((Z2, 2), (Z3, 3), (V4, 2), (Z3, 2), (Z2, 4)):
        h2 = second_cohomology(group, n)
        oracle = exhaustive_second_cohomology(group, n)
        assert (h2.z2_size, h2.b2_size, h2.size) == \
            (oracle.z2_size, oracle.b2_size, oracle.h2_size)
        keys = sorted(oracle.key(rep) for rep in h2.representatives)
        assert keys == oracle.class_keys


def test_second_cohomology_counts():
    assert second_cohomology(Z3, 2).size == 1   # gcd(3, 2) = 1 kills H^2
    assert second_cohomology(S3, 1).size == 1
    assert second_cohomology(V4, 2).size == 8
    assert second_cohomology(Z3, 3).size == 3


def test_size_factorization_holds():
    for group, n in ((V4, 2), (Z4 := cyclic(4), 2), (Z4, 4), (S3, 2), (S3, 3)):
        zs, bs, h2 = cocycle_space(group, n), coboundary_space(group, n), \
            second_cohomology(group, n)
        assert zs.size == bs.size * h2.size


def test_representatives_pairwise_non_cohomologous():
    h2 = second_cohomology(V4, 2)
    reps = h2.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert cohomologous(reps[i], reps[j]) is None


def test_cohomologous_roundtrip():
    rng = generator(41)
    zs = cocycle_space(S3, 2)
    for _ in range(10):
        c1 = zs.sample(rng)
        d = random_cochain(S3, 2, 1, rng)
        c2 = c1 + delta(d)
        witness = cohomologous(c1, c2)
        assert witness is not None
        assert (delta(witness) - (c1 - c2)).is_zero


def test_cohomologous_trivial_witness():
    rng = generator(43)
    c = cocycle_space(Z3, 3).sample(rng)
    w = cohomologous(c, c)
    assert w is not None and (delta(w)).is_zero


def test_cohomologous_rejects_bad_witness():
    # the witness check must hold under python -O, where asserts vanish
    script = textwrap.dedent("""
        import sys
        import centrex.cohomology as co
        from centrex.cochains import Cochain, delta
        from centrex.groups import symmetric3
        s3 = symmetric3()
        c1 = Cochain.zeros(s3, 2, 2)
        c2 = delta(Cochain(s3, 2, 1, [0, 1, 0, 0, 0, 0]))
        if c2.is_zero:
            sys.exit(2)
        co.delta = lambda d: Cochain.zeros(s3, 2, 2)
        try:
            co.cohomologous(c1, c2)
        except AssertionError:
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(centrex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0


def test_z4_cocycle_not_cohomologous_to_zero():
    c1 = Cochain(Z2, 2, 2, [0, 0, 0, 1])
    c0 = Cochain.zeros(Z2, 2, 2)
    assert cohomologous(c1, c0) is None
    # cross-check by exhausting all 4 candidate witnesses
    for d0 in range(2):
        for d1 in range(2):
            d = Cochain(Z2, 2, 1, [d0, d1])
            assert not (delta(d) - (c1 - c0)).is_zero


def test_capacity_guards():
    with pytest.raises(CapacityError):
        cocycle_space(Z2, 9)
    with pytest.raises(CapacityError):
        exhaustive_second_cohomology(dihedral(8), 3)
