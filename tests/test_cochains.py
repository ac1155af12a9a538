from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex.cochains import (Cochain, _face_grids, delta, delta_squared,
                              face_map, format_cochain, is_cocycle,
                              parse_cochain, random_cochain, violating_triple)
from centrex.groups import (catalog, cyclic, klein_four, quaternion8,
                            symmetric3)
from centrex.rng import generator

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


@pytest.mark.parametrize("group", [S3, quaternion8()], ids=["S3", "Q8"])
def test_face_grids_match_face_map(group):
    # the grids that delta and delta_matrix share, in both the (m,)*(p+1)
    # form of delta and the flat form of delta_matrix, tuple by tuple
    m = group.order
    for p in (1, 2):
        grids = np.indices((m,) * (p + 1))
        for i in range(p + 2):
            cube = _face_grids(group.table, grids, i)
            flat = _face_grids(group.table, grids.reshape(p + 1, -1), i)
            for row, t in enumerate(product(range(m), repeat=p + 1)):
                expected = face_map(group, p, i, t)
                assert tuple(int(a[t]) for a in cube) == expected
                assert tuple(int(a[row]) for a in flat) == expected


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
        assert delta_squared(c).is_zero


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=16,
                max_size=16),
       st.sampled_from([1, 2, 3, 4, 5]))
def test_delta_squared_zero_property(values, n):
    c = Cochain(V4, n, 2, np.array(values).reshape(4, 4))
    assert delta_squared(c).is_zero


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
        assert is_cocycle(c) == manual


def test_known_cocycles_over_z2():
    assert is_cocycle(Cochain(Z2, 2, 2, [0, 0, 0, 0]))
    # c(g, h) = g*h as integers mod 2: the Z4-producing cocycle
    prod = np.array([[g * h % 2 for h in range(2)] for g in range(2)])
    assert is_cocycle(Cochain(Z2, 2, 2, prod))
    # c(1,1) = 1 and c(0,1) = 1 fails by brute force
    assert not is_cocycle(Cochain(Z2, 2, 2, [0, 1, 0, 1]))


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
    assert c.is_zero and is_cocycle(c)
