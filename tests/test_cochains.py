from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex.cochains import (Cochain, delta, delta_stack, face_map,
                              parse_cochain, violating_triple)
from centrex.groups import (catalog, cyclic, dihedral, direct_product,
                            klein_four, quaternion8, symmetric3)
from centrex.rng import generator

from group_helpers import format_cochain, random_cochain

Z2 = cyclic(2)
Z3 = cyclic(3)
V4 = klein_four()
S3 = symmetric3()


def test_face_map_merge_case():
    # d_1 on a 3-tuple multiplies the first two entries
    g, h, k = 2, 3, 1
    s3 = S3
    assert face_map(s3, 2, 1, (g, h, k)) == (s3.mul(g, h), k)
    assert face_map(s3, 2, 2, (g, h, k)) == (g, s3.mul(h, k))


def test_face_map_drop_cases():
    assert face_map(Z2, 1, 0, (0, 1)) == (1,)
    assert face_map(Z2, 1, 2, (0, 1)) == (0,)
    assert face_map(Z2, 1, 1, (1, 1)) == (0,)


def test_face_map_index_errors():
    # valid face indices for pairs are 0, 1, 2
    with pytest.raises(IndexError):
        face_map(Z2, 1, 3, (0, 1))
    with pytest.raises(IndexError):
        face_map(Z2, 1, -1, (0, 1))
    with pytest.raises(ValueError):
        face_map(Z2, 1, 0, (0, 1, 1))
    with pytest.raises(ValueError):
        face_map(Z2, 1, 0, (0, 5))


_FACE_GROUPS = dict(catalog(), D8=dihedral(8),
                    Z4xZ8=direct_product(cyclic(4), cyclic(8)))


@pytest.mark.parametrize("name", list(_FACE_GROUPS))
def test_delta_stack_matches_face_map(name):
    # the broadcasts and takes of delta_stack against the alternating sum
    # over face_map, tuple by tuple: every tuple up to 2^16 of them, a
    # seeded sample of 4096 beyond
    group = _FACE_GROUPS[name]
    m = group.order
    rng = generator(17)
    for p in (1, 2, 3):
        if m ** (p + 1) <= 2**16:
            tuples = np.array(list(product(range(m), repeat=p + 1)))
        else:
            tuples = rng.integers(0, m, size=(4096, p + 1))
        faces = [tuple(np.array([face_map(group, p, i, t) for t in tuples]).T)
                 for i in range(p + 2)]
        for n in (2, 3, 8):
            values = rng.integers(0, n, size=(2,) + (m,) * p)
            got = delta_stack(group, n, p, values)
            for c, d in zip(values, got):
                expected = sum((-1) ** i * c[face]
                               for i, face in enumerate(faces)) % n
                assert np.array_equal(d[tuple(tuples.T)], expected)


def test_delta_past_int64_sums():
    # p + 2 terms below n = 2^62 + 1 overflow int64: c(1, 1) = f(1) - f(0)
    # + f(1) = 2^63.  Every entry against Python integers
    n = 2**62 + 1
    values = [0, 2**62]
    dc = delta(Cochain(Z2, n, 1, values))
    for g, h in product(range(2), repeat=2):
        expected = (values[h] - values[Z2.mul(g, h)] + values[g]) % n
        assert dc.value(g, h) == expected
    assert dc.value(1, 1) == 2**62 - 1


def test_delta_degree_two_formula():
    rng = generator(11)
    for group in (S3, quaternion8()):
        c = random_cochain(group, 4, 2, rng)
        dc = delta(c)
        for g, h, k in product(range(group.order), repeat=3):
            expected = (c.value(h, k) - c.value(group.mul(g, h), k)
                        + c.value(g, group.mul(h, k)) - c.value(g, h)) % 4
            assert dc.value(g, h, k) == expected


def test_delta_degree_one_by_hand():
    c = Cochain(Z2, 2, 1, [0, 1])
    dc = delta(c)
    # (delta c)(g, h) = c(h) - c(gh) + c(g); at (1,1): 1 - 0 + 1 = 0 mod 2
    assert dc.value(1, 1) == 0
    assert dc.is_zero


def test_delta_of_zero_cochain_is_zero():
    for p in (0, 1, 2):
        assert delta(Cochain.zeros(V4, 3, p)).is_zero


def test_delta_squared_zero_random():
    rng = generator(5)
    for t in range(100):
        c = random_cochain(Z3, 3, int(rng.integers(0, 3)), rng)
        assert delta(delta(c)).is_zero


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=16,
                max_size=16),
       st.sampled_from([1, 2, 3, 4, 5]))
def test_delta_squared_zero_property(values, n):
    c = Cochain(V4, n, 2, np.array(values).reshape(4, 4))
    assert delta(delta(c)).is_zero


def test_cocycle_condition_equivalence():
    # delta(c) = 0 reproduces c(g,h) + c(gh,k) = c(g,hk) + c(h,k)
    rng = generator(17)
    for _ in range(25):
        c = random_cochain(V4, 2, 2, rng)
        manual = all(
            (c.value(g, h) + c.value(V4.mul(g, h), k)) % 2
            == (c.value(g, V4.mul(h, k)) + c.value(h, k)) % 2
            for g in range(4) for h in range(4) for k in range(4)
        )
        assert delta(c).is_zero == manual


def test_known_cocycles_over_z2():
    assert delta(Cochain(Z2, 2, 2, [0, 0, 0, 0])).is_zero
    # c(g, h) = g*h as integers mod 2: the Z4-producing cocycle
    prod = np.array([[g * h % 2 for h in range(2)] for g in range(2)])
    assert delta(Cochain(Z2, 2, 2, prod)).is_zero
    # c(1,1) = 1 and c(0,1) = 1 fails by brute force
    assert not delta(Cochain(Z2, 2, 2, [0, 1, 0, 1])).is_zero


def test_violating_triple_reported():
    c = Cochain(Z2, 2, 2, [0, 1, 0, 1])
    bad = violating_triple(c)
    assert bad is not None
    g, h, k = bad
    lhs = (c.value(g, h) + c.value(Z2.mul(g, h), k)) % 2
    rhs = (c.value(g, Z2.mul(h, k)) + c.value(h, k)) % 2
    assert lhs != rhs


def test_values_reduced_mod_n():
    c = Cochain(Z2, 3, 2, [-1, 4, 5, 3])
    assert c.values.min() >= 0 and c.values.max() < 3
    assert c.value(0, 0) == 2


@pytest.mark.parametrize("degree", [10**20, 70, -1])
def test_cochain_degree_out_of_range(degree):
    # checked before (m,) * degree is built or its size taken in int64
    with pytest.raises(ValueError, match="0..64"):
        Cochain(Z2, 2, degree, [0])
    with pytest.raises(ValueError, match="0..64"):
        Cochain.zeros(Z2, 2, degree)


def test_cochain_file_roundtrip():
    rng = generator(23)
    for group, n, p in ((Z3, 3, 2), (V4, 2, 1), (Z2, 5, 0)):
        c = random_cochain(group, n, p, rng)
        back = parse_cochain(format_cochain(c), group)
        assert back == c


def test_cochain_file_errors():
    with pytest.raises(ValueError, match="header"):
        parse_cochain("x 2\n0 0 0 0\n", Z2)
    with pytest.raises(ValueError, match="expected 4"):
        parse_cochain("2 2\n0 0 0\n", Z2)
    with pytest.raises(ValueError, match="integers"):
        parse_cochain("2 2\n0 0 0 z\n", Z2)


def test_modulus_one_collapses_everything():
    rng = generator(29)
    c = random_cochain(S3, 1, 2, rng)
    assert c.is_zero and delta(c).is_zero
