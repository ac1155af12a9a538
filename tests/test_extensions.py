import numpy as np
import pytest

from centrex.cochains import Cochain, delta
from centrex.cohomology import cohomologous, second_cohomology
from centrex.errors import CocycleError
from centrex.extensions import (build_extension, extension_fingerprint,
                                extension_fingerprints)
from centrex.groups import (catalog, cyclic, dihedral, direct_product,
                            fingerprint, klein_four, quaternion8, symmetric3,
                            table_fingerprint)
from centrex.rng import generator

from group_helpers import (is_table_isomorphism, pair_isomorphism,
                           random_cochain)

Z2 = cyclic(2)
Z3 = cyclic(3)
V4 = klein_four()


def test_trivial_cocycle_gives_direct_product():
    for group, n in ((Z3, 3), (V4, 2), (symmetric3(), 2)):
        ext = build_extension(Cochain.zeros(group, n, 2))
        product = direct_product(cyclic(n), group)
        assert table_fingerprint(ext.table, ext.identity) == fingerprint(product)


def test_z4_from_the_nontrivial_cocycle():
    ext = build_extension(Cochain(Z2, 2, 2, [0, 0, 0, 1]))
    fp = table_fingerprint(ext.table, ext.identity)
    assert fp == fingerprint(cyclic(4))
    assert 4 in fp.element_orders


def test_z9_from_the_carry_cocycle():
    carry = np.array([[1 if g + h >= 3 else 0 for h in range(3)]
                      for g in range(3)])
    ext = build_extension(Cochain(Z3, 3, 2, carry))
    fp = table_fingerprint(ext.table, ext.identity)
    assert fp.element_orders.count(9) == 6  # Z9 has six generators


def test_non_cocycle_rejected_with_triple():
    c = Cochain(Z2, 2, 2, [0, 1, 0, 1])
    with pytest.raises(CocycleError) as err:
        build_extension(c)
    g, h, k = err.value.triple
    lhs = (c.value(g, h) + c.value(Z2.mul(g, h), k)) % 2
    rhs = (c.value(g, Z2.mul(h, k)) + c.value(h, k)) % 2
    assert lhs != rhs


def test_build_succeeds_iff_cocycle_small_sweep():
    # every degree-2 cochain over Z2 with n = 2: 16 of them
    for bits in range(16):
        vals = [(bits >> i) & 1 for i in range(4)]
        c = Cochain(Z2, 2, 2, vals)
        if delta(c).is_zero:
            ext = build_extension(c)
            assert ext.order == 4
        else:
            with pytest.raises(CocycleError):
                build_extension(c)


def test_unnormalized_cocycle_identity():
    # constant-shifted Z4 cocycle: identity moves to (-c(e,e), e), the
    # pair (a, g) sitting at index a * m + g
    c = Cochain(Z2, 2, 2, [1, 1, 1, 0])
    ext = build_extension(c)
    assert ext.identity == 1 * Z2.order + 0
    assert table_fingerprint(ext.table, ext.identity) == fingerprint(cyclic(4))


def test_projection_and_central_kernel():
    rng = generator(3)
    # a random cocycle: a class representative moved by a random coboundary
    reps = second_cohomology(V4, 2).representatives
    ext = build_extension(reps[int(rng.integers(len(reps)))]
                          + delta(random_cochain(V4, 2, 1, rng)))
    m, t = V4.order, ext.table
    for x in range(ext.order):
        for y in range(ext.order):
            assert t[x, y] % m == V4.mul(x % m, y % m)
    kernel = [a * m for a in range(2)]
    for z in kernel:
        assert (t[z] == t[:, z]).all()


def test_q8_appears_exactly_once_over_v4():
    fps = [extension_fingerprint(rep)
           for rep in second_cohomology(V4, 2).representatives]
    q8 = fingerprint(quaternion8())
    d4 = fingerprint(dihedral(4))
    assert fps.count(q8) == 1
    assert fps.count(d4) >= 1
    assert q8.element_orders == (1, 2, 4, 4, 4, 4, 4, 4)


@pytest.mark.parametrize("name,n", [(name, n) for name in catalog()
                                    for n in (2, 3, 4, 8)]
                         + [("Z2^3", 2), ("D6", 8)])
def test_extension_fingerprints_match_tables(name, n):
    # the cocycle formulas against the fingerprint of the built table, on
    # every class representative, its constant shifts by 1 and n - 1
    # (unnormalized: c(e, e) != 0) and a cohomologous rep + delta(f)
    groups = dict(catalog(), D6=dihedral(6))
    groups["Z2^3"] = direct_product(V4, Z2)
    group = groups[name]
    rng = generator(n)
    cocycles = []
    for rep in second_cohomology(group, n).representatives:
        cocycles += [rep, Cochain(group, n, 2, rep.values + 1),
                     Cochain(group, n, 2, rep.values + n - 1),
                     rep + delta(random_cochain(group, n, 1, rng))]
    fps = extension_fingerprints(group, n, [c.values for c in cocycles])
    assert len(fps) == len(cocycles)
    for c, fp in zip(cocycles, fps):
        ext = build_extension(c)
        assert fp == table_fingerprint(ext.table, ext.identity)


def test_pair_isomorphism_matches_tables():
    rng = generator(19)
    reps = second_cohomology(V4, 2).representatives
    for _ in range(10):
        c1 = (reps[int(rng.integers(len(reps)))]
              + delta(random_cochain(V4, 2, 1, rng)))
        d = random_cochain(V4, 2, 1, rng)
        c2 = c1 + delta(d)
        witness = cohomologous(c2, c1)     # c2 - c1 = delta(witness)
        perm = pair_isomorphism(c1, c2, witness)
        e1, e2 = build_extension(c1), build_extension(c2)
        assert is_table_isomorphism(e1, e2, perm)
        assert table_fingerprint(e1.table, e1.identity) \
            == table_fingerprint(e2.table, e2.identity)


def test_pair_isomorphism_rejects_bad_witness():
    c1 = Cochain(Z2, 2, 2, [0, 0, 0, 1])
    c0 = Cochain.zeros(Z2, 2, 2)
    bad = Cochain(Z2, 2, 1, [0, 1])
    with pytest.raises(ValueError, match="witness"):
        pair_isomorphism(c0, c1, bad)


def _assert_group_axioms(ext):
    """Brute force over the whole table: each group axiom that
    ExtensionGroup derives from delta(c) = 0 instead of checking it."""
    t, k = ext.table, ext.order
    n, m, e = ext.modulus, ext.base.order, ext.identity
    x = np.arange(k)
    # Latin square, entries in range
    assert (np.sort(t, axis=1) == x).all()
    assert (np.sort(t, axis=0) == x[:, None]).all()
    # identity neutral, inverse two-sided
    assert (t[e] == x).all() and (t[:, e] == x).all()
    inverse = np.argmax(t == e, axis=1)
    assert (t[x, inverse] == e).all() and (t[inverse, x] == e).all()
    # (xy)z = x(yz) over all k^3 triples
    assert (t[t[:, :, None], x] == t[x[:, None, None], t[None, :, :]]).all()
    # projection (a, g) -> g is a homomorphism onto the base table
    assert (t % m == ext.base.table[np.ix_(x % m, x % m)]).all()
    # kernel {(a, e)} is central and cyclic of order n
    kernel = x[x % m == 0]
    assert kernel.size == n and (t[kernel] == t[:, kernel].T).all()
    cyclic_kernel = False
    for z in kernel:
        powers, p = [e], t[e, z]
        while p != e:
            powers.append(p)
            p = t[p, z]
        cyclic_kernel |= sorted(powers) == kernel.tolist()
    assert cyclic_kernel


@pytest.mark.parametrize("name,n", [(name, n) for name in catalog()
                                    for n in (2, 3, 4)] + [("D8", 2)])
def test_extension_tables_are_groups(name, n):
    group = dihedral(8) if name == "D8" else catalog()[name]
    for rep in second_cohomology(group, n).representatives:
        for shift in range(n):  # unnormalized: c + a constant
            c = Cochain(group, n, 2, rep.values + shift)
            _assert_group_axioms(build_extension(c))
