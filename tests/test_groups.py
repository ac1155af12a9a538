import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centrex.cohomology import second_cohomology
from centrex.extensions import build_extension
from centrex.groups import (FiniteGroup, GroupFingerprint, _check_associative,
                            catalog, cyclic, dihedral, direct_product,
                            fingerprint, generating_set, klein_four,
                            parse_group_table, quaternion8, symmetric3,
                            table_fingerprint)

from group_helpers import format_group_table

# a 5x5 Latin square with identity 0 that fails associativity
FIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_tables_are_valid_groups():
    for m in (1, 2, 3, 4, 5, 8):
        g = cyclic(m)
        assert g.order == m
        assert g.mul(0, m - 1) == m - 1
        assert g.inverse[1 % m] == (m - 1) % m


def test_identity_is_element_zero_everywhere():
    for name, g in catalog().items():
        assert np.array_equal(g.table[0], np.arange(g.order)), name
        assert np.array_equal(g.table[:, 0], np.arange(g.order)), name


def test_rejects_non_latin_square():
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([[0, 1], [0, 1]])


def test_rejects_non_associative_table():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(FIVE)


def test_rejects_shifted_identity():
    t = cyclic(3).table
    shifted = t[[1, 0, 2]][:, [1, 0, 2]]  # plain relabeling, identity at 1
    relabel = np.array([1, 0, 2])
    shifted = relabel[shifted]
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(shifted)


def test_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="indices"):
        FiniteGroup([[0, 1], [1, 7]])


def test_s3_structure():
    s3 = symmetric3()
    fp = fingerprint(s3)
    assert fp.order == 6
    assert not fp.is_abelian
    assert fp.center_order == 1
    assert fp.derived_order == 3
    assert fp.element_orders == (1, 2, 2, 2, 3, 3)


def test_dihedral_and_quaternion_fingerprints_differ():
    d4, q8 = fingerprint(dihedral(4)), fingerprint(quaternion8())
    assert d4.order == q8.order == 8
    # involution counts 5 vs 1 distinguish them
    assert d4.element_orders.count(2) == 5
    assert q8.element_orders.count(2) == 1
    assert d4 != q8


def test_textbook_fingerprints():
    assert fingerprint(cyclic(4)).element_orders == (1, 2, 4, 4)
    assert fingerprint(klein_four()).element_orders == (1, 2, 2, 2)
    assert fingerprint(cyclic(4)).center_order == 4


def test_direct_product_order_and_abelianness():
    g = direct_product(cyclic(2), cyclic(3))
    fp = fingerprint(g)
    assert fp.order == 6
    assert fp.is_abelian
    assert 6 in fp.element_orders  # Z2 x Z3 is Z6


def test_table_file_roundtrip():
    for g in (cyclic(4), symmetric3(), quaternion8()):
        text = format_group_table(g)
        back = parse_group_table(text)
        assert np.array_equal(back.table, g.table)


def test_table_file_reports_line_and_column():
    with pytest.raises(ValueError, match="line 3"):
        parse_group_table("2\n0 1\n1 x\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        parse_group_table("2\n0 1\n1\n")
    with pytest.raises(ValueError, match="table rows"):
        parse_group_table("3\n0 1 2\n1 2 0\n")
    with pytest.raises(ValueError, match="order"):
        parse_group_table("x\n")


# ---------------------------------------------------------------------------
# Light's test on a generating set against the m^3 brute force

_GROUPS = list(catalog().values()) + [
    dihedral(6), direct_product(cyclic(2), cyclic(4)),
    direct_product(klein_four(), cyclic(2))]


def _brute_force_violation(table):
    """First (g, h, k) in row-major order with (gh)k != g(hk), or None."""
    ks = np.arange(len(table))
    bad = np.argwhere(table[table[:, :, None], ks] != table[:, table])
    return tuple(int(x) for x in bad[0]) if bad.size else None


def _relabel(table, perm):
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def _switch_intercalates(table, picks):
    """Swap the two symbols of 2x2 Latin subsquares that avoid row and
    column 0: the result is a Latin square with identity 0, usually not
    associative."""
    t = table.copy()
    m = len(t)
    for r1, c1, j in picks:
        r1, c1 = 1 + r1 % (m - 1), 1 + c1 % (m - 1)
        found = []
        for r2 in range(1, m):
            c2 = int(np.flatnonzero(t[r2] == t[r1, c1])[0])
            if r2 != r1 and c2 not in (0, c1) and t[r1, c2] == t[r2, c1]:
                found.append((r2, c2))
        if found:
            r2, c2 = found[j % len(found)]
            a, b = t[r1, c1], t[r1, c2]
            t[r1, c1], t[r1, c2], t[r2, c1], t[r2, c2] = b, a, a, b
    return t


@st.composite
def _latin_squares(draw):
    """Relabelled catalog groups (the identity moves), the same with some
    intercalates switched (identity 0 kept), and symbol-permuted groups,
    which are quasigroups with no identity at all."""
    table = draw(st.sampled_from(_GROUPS)).table
    perm = np.array(draw(st.permutations(range(len(table)))))
    kind = draw(st.sampled_from(["relabel", "switch", "symbols"]))
    if kind == "relabel":
        return _relabel(table, perm)
    if kind == "symbols":
        return perm[table]
    fixed = np.concatenate([[0], perm[perm != 0]])
    picks = draw(st.lists(st.tuples(*[st.integers(0, 31)] * 3), min_size=1,
                          max_size=4))
    return _switch_intercalates(_relabel(table, fixed), picks)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_latin_squares())
@example(np.array(FIVE))
def test_check_associative_matches_brute_force(table):
    table = np.asarray(table, dtype=np.int64)
    got = _check_associative(table, generating_set(table))
    assert (got is None) == (_brute_force_violation(table) is None)
    if got is not None:
        g, h, k = got
        assert table[table[g, h], k] != table[g, table[h, k]]
        assert k in generating_set(table)


def test_generating_set_size_on_groups():
    for group in _GROUPS + [dihedral(16), cyclic(32)]:
        gens = generating_set(group.table)
        assert 0 not in gens
        assert list(gens) == sorted(gens)
        assert len(gens) <= math.log2(group.order)
        # the group keeps the set that validation computed, read only
        assert np.array_equal(group.generators, gens)
        assert not group.generators.flags.writeable


# ---------------------------------------------------------------------------
# vectorised fingerprints against the loop implementation they replaced

def _reference_fingerprint(table, e):
    table = np.asarray(table)
    m = len(table)
    orders = []
    for g in range(m):
        x, k = g, 1
        while x != e:
            x = int(table[x, g])
            k += 1
        orders.append(k)
    central = [g for g in range(m)
               if all(table[g, h] == table[h, g] for h in range(m))]
    inv = {g: h for g in range(m) for h in range(m) if table[g, h] == e}
    members = {int(table[table[g, h], table[inv[g], inv[h]]])
               for g in range(m) for h in range(m)} | {e}
    grew = True
    while grew:
        new = {int(table[a, b]) for a in members for b in members} - members
        members |= new
        grew = bool(new)
    return GroupFingerprint(order=m, element_orders=tuple(sorted(orders)),
                            is_abelian=len(central) == m,
                            center_order=len(central),
                            derived_order=len(members))


def test_fingerprints_match_reference():
    tables = [(g.table, 0) for g in catalog().values()]
    z2_cubed = direct_product(klein_four(), cyclic(2))
    reps = second_cohomology(z2_cubed, 2).representatives
    assert len(reps) == 64
    for rep in reps:
        ext = build_extension(rep)
        tables.append((ext.table, ext.identity))
    for table, e in tables:
        assert table_fingerprint(table, e) == _reference_fingerprint(table, e)
