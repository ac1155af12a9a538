import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import centrex
from centrex import cohomology
from centrex.cochains import Cochain, delta, delta_stack
from centrex.cohomology import (cohomologous, delta_matrix,
                                exhaustive_coboundaries, exhaustive_cocycles,
                                exhaustive_second_cohomology, kernel_mod,
                                second_cohomology, smith_normal_form,
                                solve_mod)
from centrex.errors import CapacityError
from centrex.groups import (FiniteGroup, catalog, cyclic, dihedral,
                            direct_product, generating_set, klein_four,
                            quaternion8, symmetric3)
from centrex.rng import generator

from group_helpers import random_cochain

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


def test_delta_stack_matches_delta_per_entry():
    rng = generator(5)
    for group, n, p in ((S3, 4, 1), (V4, 3, 2), (quaternion8(), 2, 2)):
        cochains = [random_cochain(group, n, p, rng) for _ in range(3)]
        stacked = delta_stack(group, n, p, np.stack([c.values for c in cochains]))
        for c, d in zip(cochains, stacked):
            assert np.array_equal(d, delta(c).values)
    with pytest.raises(CapacityError):
        delta_stack(S3, 2, 2, np.zeros((2**22 // 6**3 + 1, 6, 6), dtype=int))


Z2_4 = direct_product(direct_product(Z2, Z2), direct_product(Z2, Z2))


@pytest.mark.parametrize("group, n", [
    (dihedral(8), 2), (quaternion8(), 4), (dihedral(6), 8), (Z2_4, 2),
    (direct_product(cyclic(4), cyclic(4)), 8),
], ids=["D8-n2", "Q8-n4", "D6-n8", "Z2^4-n2", "Z4xZ4-n8"])
def test_z2_from_generator_rows_matches_full_kernel(group, n):
    full_size, _, _ = kernel_mod(delta_matrix(group, 2), n)
    h2 = second_cohomology(group, n)
    assert h2.z2_size == full_size
    for gen in h2.z2_generators:
        assert delta(gen).is_zero


def _coordinates(group):
    """(table, generating set S, Cayley tree)."""
    table = group.table
    gens = generating_set(table)
    return table, gens, cohomology._cayley_tree(table, gens)


# every catalog group at every modulus the oracle admits
_FEASIBLE = [(name, n) for name, group in catalog().items()
             for n in range(1, cohomology.MAX_MODULUS + 1)
             if n ** (group.order ** 2) <= cohomology.ORACLE_LIMIT]


@pytest.mark.parametrize("name, n", _FEASIBLE,
                         ids=["%s-n%d" % pair for pair in _FEASIBLE])
def test_lift_spans_exactly_the_exhaustive_cocycles(name, n):
    # the recursion lemma: Z^2 = L(ker M), with nothing missing and nothing
    # extra, against the meet-in-the-middle enumeration of Z^2
    group = catalog()[name]
    h2 = second_cohomology(group, n)
    gens = np.array([g.values.reshape(-1) for g in h2.z2_generators],
                    dtype=np.int64).reshape(-1, group.order ** 2)
    combos = cohomology._digit_rows(n, len(gens))
    span = np.unique(combos @ gens % n, axis=0)
    assert len(span) == h2.z2_size
    assert np.array_equal(span, np.unique(exhaustive_cocycles(group, n),
                                          axis=0))


@pytest.mark.parametrize("group, n", [
    (S3, 2), (quaternion8(), 4), (dihedral(8), 8),
    (direct_product(cyclic(4), cyclic(4)), 3),
], ids=["S3-n2", "Q8-n4", "D8-n8", "Z4xZ4-n3"])
def test_lift_is_injective_and_fills_the_tree_rows(group, n):
    table, gens, tree = _coordinates(group)
    m, r = group.order, len(gens)
    assert len(tree) == m - 1 - r
    coords = generator(59).integers(0, n, size=(6, (m - 1) * r + 1))
    c = cohomology._lift(table, gens, tree, coords, n)
    # L copies its coordinates c(e, e) and c(g, s), g != e, so reading
    # them back is a left inverse
    read = np.concatenate([c[:, 0, :1], c[:, 1:][:, :, gens].reshape(6, -1)],
                          axis=1)
    assert np.array_equal(read, coords)
    rows = delta_stack(group, n, 2, c)[:, :, :, gens]
    for t, h, s in tree:
        assert table[h, s] == t
        assert not rows[:, :, h, list(gens).index(s)].any()
    # the rows (g, e, s) read c(e, s) - c(g, e), two copies of c(e, e)
    assert not rows[:, :, 0].any()
    # the other generator rows are constraints: random coordinates break
    # some of them
    assert rows.any()


_HOM_GROUPS = dict(catalog(), D6=dihedral(6), D8=dihedral(8),
                   Z2_3=direct_product(direct_product(Z2, Z2), Z2),
                   Z4xZ4=direct_product(cyclic(4), cyclic(4)))
# every pair whose n^m maps G -> Z/n the enumeration admits
_HOM_FEASIBLE = [(name, n) for name, group in _HOM_GROUPS.items()
                 for n in (1, 2, 3, 4, 6, 8)
                 if n ** group.order <= cohomology.ORACLE_LIMIT]


@pytest.mark.parametrize("name, n", _HOM_FEASIBLE,
                         ids=["%s-n%d" % pair for pair in _HOM_FEASIBLE])
def test_hom_rows_count_the_homomorphisms(name, n):
    # the kernel of the Cayley-graph constraints is Hom(G, Z/n) = ker
    # delta^1, against every map G -> Z/n, and n^m / |Hom| is |B^2|
    group = _HOM_GROUPS[name]
    table, gens, tree = _coordinates(group)
    rows = cohomology._hom_rows(table, gens, tree, n)
    m, r = group.order, len(gens)
    assert rows.shape[1] == r and rows.shape[0] <= m * r
    hom_size, _, _ = kernel_mod(rows, n)
    # the maps f with delta f = 0, one row of delta^1 at a time
    closed = cohomology.all_cochain_values(group, n, 1)
    for row in delta_matrix(group, 1):
        closed = closed[closed @ row % n == 0]
    assert hom_size == len(closed)
    assert second_cohomology(group, n).b2_size == n ** m // hom_size
    # the enumeration of B^2 holds n^m rows of m^2 int64 entries before it
    # deduplicates them; past 2^24 (128 MiB, only D6 at n = 3 here) the
    # count of closed maps above stands alone
    if n ** m * m * m <= 2**24:
        assert n ** m // hom_size == len(exhaustive_coboundaries(group, n))


def _relabelled(group, seed):
    """The same group on a seeded permutation of its labels fixing 0."""
    m = group.order
    perm = np.concatenate([[0], 1 + generator(seed).permutation(m - 1)])
    table = np.empty_like(group.table)
    table[perm[:, None], perm[None, :]] = perm[group.table]
    return FiniteGroup(table, group.name + "'")


@pytest.mark.parametrize("group", [dihedral(8), quaternion8()],
                         ids=["D8", "Q8"])
def test_relabelling_keeps_counts_and_factors(group):
    other = _relabelled(group, 61)
    # another labelling gives another generating set or Cayley tree
    assert _coordinates(other)[2] != _coordinates(group)[2]
    for n in (2, 4):
        h2, h2_other = second_cohomology(group, n), \
            second_cohomology(other, n)
        assert (h2.size, h2.z2_size, h2.b2_size, h2.invariant_factors) == \
            (h2_other.size, h2_other.z2_size, h2_other.b2_size,
             h2_other.invariant_factors)
        assert all(delta(c).is_zero for c in h2_other.representatives)


def test_lift_rejects_a_set_that_does_not_generate(monkeypatch):
    # a tree that misses an element cannot fill its column; the lift says
    # so before any SNF runs instead of returning counts for a subgroup
    for group in (S3, quaternion8(), dihedral(8)):
        gens = generating_set(group.table)
        with pytest.raises(AssertionError, match="does not generate"):
            cohomology._cayley_tree(group.table, gens[:-1])
    snfs = []
    monkeypatch.setattr(cohomology, "smith_normal_form",
                        lambda A, n: snfs.append(A))
    q8 = quaternion8()
    monkeypatch.setattr(q8, "generators", q8.generators[:-1])
    with pytest.raises(AssertionError, match="does not generate"):
        second_cohomology(q8, 2)
    assert snfs == []


def test_smith_normal_form_transforms():
    # only the column transform is kept: V is invertible mod n, and A V has
    # no nonzero column past the diagonal.  n = 6 has entries that do not
    # divide each other: the Bezout path
    rng = generator(9)
    for n in (2, 3, 4, 6, 8):
        for _ in range(20):
            A = rng.integers(-4, 5, size=(rng.integers(2, 7),
                                          rng.integers(2, 7)))
            res = smith_normal_form(A, n)
            for M in (res.V, res.Vinv):
                assert M.dtype == np.int64 and M.min() >= 0 and M.max() < n
            assert all(0 < d < n for d in res.diag)
            assert np.array_equal(np.mod(res.V @ res.Vinv, n),
                                  np.eye(A.shape[1], dtype=int))
            AV = np.mod(A @ res.V, n)
            r = len(res.diag)
            assert not AV[:, r:].any()
            # column j of A V = U^-1 diag is d_j times a column of the
            # invertible (unkept) U^-1, so its content is gcd(d_j, n)
            for j, d in enumerate(res.diag):
                assert np.gcd.reduce(np.append(AV[:, j], n)) == \
                    np.gcd(d, n)


def _snf_pivot_paths(monkeypatch, A, n):
    """The SNF of A with and without the rank-1 update, and whether each
    pivot took it."""
    real, taken = cohomology._rank_one, []

    def recording(S, V, Vinv, n):
        taken.append(real(S, V, Vinv, n))
        return taken[-1]

    monkeypatch.setattr(cohomology, "_rank_one", recording)
    fast = smith_normal_form(A, n)
    monkeypatch.setattr(cohomology, "_rank_one", lambda S, V, Vinv, n: False)
    return fast, smith_normal_form(A, n), taken


@pytest.mark.parametrize("n, A, taken", [
    # the pivot 2 divides its row and column: one update, then the pivot 4
    (8, [[2, 4, 6], [4, 2, 0], [6, 0, 4]], [True, True, True]),
    # the pivot 2 meets a 3 in its row: the Bezout loop
    (6, [[2, 3], [3, 4]], [False, True]),
], ids=["n8-dividing", "n6-bezout"])
def test_rank_one_update_is_the_elimination(monkeypatch, n, A, taken):
    fast, slow, paths = _snf_pivot_paths(monkeypatch, A, n)
    assert paths == taken
    assert fast.diag == slow.diag
    assert np.array_equal(fast.V, slow.V)
    assert np.array_equal(fast.Vinv, slow.Vinv)


def test_rank_one_update_matches_on_random_matrices(monkeypatch):
    # diag, V and Vinv bit-identical with and without the update, over
    # moduli with unit, dividing non-unit and Bezout pivots
    rng = generator(41)
    for n in range(2, 9):
        for _ in range(10):
            A = rng.integers(0, n, size=(rng.integers(2, 9),
                                         rng.integers(2, 9)))
            fast, slow, _ = _snf_pivot_paths(monkeypatch, A, n)
            assert fast.diag == slow.diag
            assert np.array_equal(fast.V, slow.V)
            assert np.array_equal(fast.Vinv, slow.Vinv)


def test_kernel_mod_counts_by_enumeration():
    rng = generator(13)
    for n in (2, 3, 4, 6):
        A = rng.integers(-3, 4, size=(4, 3))
        size, gens, orders = kernel_mod(A, n)
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
    for n in (1, 2, 4, 6, 8):
        A = rng.integers(-3, 4, size=(5, 3))
        x = rng.integers(0, n, size=3)
        b = np.mod(A @ x, n)
        got = solve_mod(A, b, n)
        assert got is not None and got.shape == (3,)
        assert np.array_equal(np.mod(A @ got, n), b)
    assert solve_mod(np.array([[2]]), np.array([1]), 4) is None
    # every right-hand side of a small system, against brute force: the
    # last coordinates of the kernel generators must fold to 1 exactly
    # when some x solves it
    for n in (4, 6):
        A = np.array([[2, 0], [0, 3], [2, 3]])
        images = {tuple(np.mod(A @ np.array([x0, x1]), n))
                  for x0 in range(n) for x1 in range(n)}
        for b in np.ndindex(n, n, n):
            got = solve_mod(A, np.array(b), n)
            assert (got is not None) == (b in images)
            if got is not None:
                assert tuple(np.mod(A @ got, n)) == b


def _filtered_cocycles(group, n):
    """Reference oracle: filter every one of the n^(m^2) cochains through
    the dense m^3 x m^2 matrix of delta^2."""
    candidates = cohomology.all_cochain_values(group, n, 2)
    residual = np.mod(candidates @ delta_matrix(group, 2).T, n)
    return candidates[~residual.any(axis=1)]


# every catalog pair the oracle admits; at n = 2, -x = x would hide a
# dropped negation of the right half's residual.  On these groups the left
# half residuals are pairwise distinct; on the trivial group the right
# half is empty and all n left halves share the zero residual
@pytest.mark.parametrize("group, n", [
    (Z2, 2), (Z2, 3), (Z2, 4), (Z2, 8), (Z3, 2), (Z3, 3), (Z3, 4),
    (cyclic(4), 2), (V4, 2), (cyclic(1), 3),
], ids=["Z2-n2", "Z2-n3", "Z2-n4", "Z2-n8", "Z3-n2", "Z3-n3", "Z3-n4",
        "Z4-n2", "Z2xZ2-n2", "Z1-n3"])
def test_meet_in_the_middle_matches_filter(group, n):
    got = exhaustive_cocycles(group, n)
    ref = _filtered_cocycles(group, n)
    assert got.dtype == np.int64 and got.shape == ref.shape
    # every cocycle once: as many distinct rows as rows, and the same set
    distinct = np.unique(got, axis=0)
    assert len(distinct) == len(got)
    assert np.array_equal(distinct, np.unique(ref, axis=0))


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_oracle_at_modulus_one_stays_small():
    # n^(m^2) = 1 admits every order: the dense delta^2 of D16 alone would
    # take 256 MiB
    oracle, peak = _peak_mib(exhaustive_second_cohomology, dihedral(16), 1)
    assert (oracle.z2_size, oracle.b2_size, oracle.h2_size) == (1, 1, 1)
    assert peak < 16


def test_second_cohomology_peak_at_order_32():
    # the SNFs run on the m (|S| + 1) = 96 coordinates of the lift; the
    # 5120 x 1024 generator rows of delta^2 with their dense 1024 x 1024
    # V and Vinv traced 48.6 MiB here
    h2, peak = _peak_mib(second_cohomology, dihedral(16), 2)
    assert (h2.z2_size, h2.b2_size, h2.size) == (2**33, 2**30, 8)
    assert h2.invariant_factors == [2, 2, 2]
    assert peak < 12


def test_second_cohomology_modulus_one_stays_small():
    # every space is trivial mod 1; the m^2-column solve still traced
    # 48.5 MiB here
    h2, peak = _peak_mib(second_cohomology, dihedral(16), 1)
    assert (h2.z2_size, h2.b2_size, h2.size) == (1, 1, 1)
    assert h2.invariant_factors == [] and len(h2.representatives) == 1
    assert peak < 8


def test_cohomologous_peak_at_order_32():
    # the kernel of the m^2 x (m + 1) matrix [delta^1 | -b] carries an
    # (m + 1)^2 column transform; an m^2 x m^2 row transform of delta^1
    # would trace 19.5 MiB here
    G = dihedral(16)
    c = delta(random_cochain(G, 2, 1, generator(53)))
    witness, peak = _peak_mib(cohomologous, c, Cochain.zeros(G, 2, 2))
    assert witness is not None and (delta(witness) - c).is_zero
    assert peak < 4


def test_oracle_peak_memory_on_z3_mod4():
    # a filter over all 4^9 cochains traces about 126 MiB
    oracle, peak = _peak_mib(exhaustive_second_cohomology, Z3, 4)
    assert (oracle.z2_size, oracle.b2_size, oracle.h2_size) == (64, 64, 1)
    assert peak < 4


def test_oracle_admission_precedes_every_delta(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("delta_stack", "delta_matrix"):
        monkeypatch.setattr(cohomology, name,
                            counted(getattr(cohomology, name)))
    with pytest.raises(CapacityError):
        exhaustive_second_cohomology(dihedral(8), 2)
    assert calls == []
    # once admitted, Z^2 takes the full delta of each half and never the
    # matrix of delta^2
    exhaustive_cocycles(Z3, 4)
    assert calls == ["delta_stack", "delta_stack"]


def _random_cocycle(h2, rng):
    """A uniform element of Z^2: a uniform class representative plus the
    delta of a uniform 1-cochain, which is uniform on B^2."""
    rep = h2.representatives[int(rng.integers(h2.size))]
    return rep + delta(random_cochain(h2.group, h2.modulus, 1, rng))


def test_z2_mod2_space_sizes():
    h2 = second_cohomology(Z2, 2)
    oracle = exhaustive_second_cohomology(Z2, 2)
    # the exhaustive filter over all 16 maps is the ground truth
    assert h2.z2_size == oracle.z2_size == 4
    assert h2.b2_size == oracle.b2_size == 2
    assert len(exhaustive_cocycles(Z2, 2)) == 4


def test_coboundary_space_n1_and_z3():
    assert second_cohomology(S3, 1).b2_size == 1
    assert second_cohomology(Z3, 3).b2_size \
        == len(exhaustive_coboundaries(Z3, 3)) == 9


def test_cocycle_space_generators_span():
    h2 = second_cohomology(V4, 2)
    for gen in h2.z2_generators:
        assert delta(gen).is_zero
    rng = generator(7)
    for _ in range(10):
        assert delta(_random_cocycle(h2, rng)).is_zero
    # the representatives moved by every coboundary are exactly Z^2, so
    # the draws range over all of it
    moved = {(rep + delta(Cochain(V4, 2, 1, d))).values.tobytes()
             for rep in h2.representatives
             for d in cohomology.all_cochain_values(V4, 2, 1)}
    assert moved == {c.tobytes() for c in exhaustive_cocycles(V4, 2)}
    assert len(moved) == h2.z2_size == 32


def test_second_cohomology_matches_oracle():
    # the oracle admits n^(m^2) <= ORACLE_LIMIT = 2^20
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
        h2 = second_cohomology(group, n)
        full_size, _, _ = kernel_mod(delta_matrix(group, 2), n)
        assert full_size == h2.z2_size == h2.b2_size * h2.size


def test_representatives_pairwise_non_cohomologous():
    h2 = second_cohomology(V4, 2)
    reps = h2.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert cohomologous(reps[i], reps[j]) is None


@pytest.mark.parametrize("group, n, factors", [
    (dihedral(4), 4, [2, 2, 2]),
    (quaternion8(), 4, [2, 2]),
    (S3, 6, [2]),
    (dihedral(6), 2, [2, 2, 2]),
], ids=["D4-n4", "Q8-n4", "S3-n6", "D6-n2"])
def test_representatives_beyond_oracle(group, n, factors):
    # n^(m^2) > 2^20, so the oracle cannot run; the expected factors are
    # H^2 = Hom(H_2 G, Z/n) + Ext(H_1 G, Z/n) by the universal coefficient
    # theorem, with H_1 = (Z2)^2, H_2 = Z2 for D4 and D6, H_1 = (Z2)^2,
    # H_2 = 0 for Q8, and H_1 = Z2, H_2 = 0 for S3
    with pytest.raises(CapacityError):
        exhaustive_second_cohomology(group, n)
    h2 = second_cohomology(group, n)
    assert h2.invariant_factors == factors
    reps = h2.representatives
    assert len(reps) == h2.size == 2 ** len(factors)
    for rep in reps:
        assert delta(rep).is_zero
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert cohomologous(reps[i], reps[j]) is None
    # the same check finds a witness once a class member is moved by a
    # coboundary
    moved = reps[-1] + delta(random_cochain(group, n, 1, generator(47)))
    witness = cohomologous(reps[-1], moved)
    assert witness is not None
    assert (delta(witness) - (reps[-1] - moved)).is_zero


def test_cohomologous_roundtrip():
    rng = generator(41)
    h2 = second_cohomology(S3, 2)
    for _ in range(10):
        c1 = _random_cocycle(h2, rng)
        d = random_cochain(S3, 2, 1, rng)
        c2 = c1 + delta(d)
        witness = cohomologous(c1, c2)
        assert witness is not None
        assert (delta(witness) - (c1 - c2)).is_zero


def test_cohomologous_trivial_witness():
    rng = generator(43)
    c = _random_cocycle(second_cohomology(Z3, 3), rng)
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
        second_cohomology(Z2, 9)
    for n in (0, -2):
        with pytest.raises(ValueError, match="modulus"):
            second_cohomology(Z2, n)
    with pytest.raises(CapacityError):
        exhaustive_second_cohomology(dihedral(8), 3)
