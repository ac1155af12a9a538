"""Cocycles, coboundaries and second cohomology over Z/n by linear algebra.

The condition delta(c) = 0 is Z/n-linear in the m^2 unknown values of a
degree-2 cochain, so Z^2 is the kernel of a matrix of delta mod n, B^2 is
the image of the degree-1 differential, and H^2 = Z^2 / B^2 is the
cokernel of the coboundaries written in coordinates of Z^2.  All three
come from one Smith normal form over Z/n, a principal ideal ring, with
every entry kept in [0, n) (Storjohann & Mulders, "Fast algorithms for
linear algebra modulo N", ESA 1998).  That SNF tracks the column
transform V and its inverse only.  A kernel is read off the columns of V.
The quotient needs the row transform U of its relation matrix M instead,
so it runs on M^T, whose V is U(M)^T.  A linear system A x = b is solved
through the kernel of [A | -b], which holds (x, 1) exactly when x solves
it.  An exhaustive enumeration oracle, independent of that algebra,
checks it wherever n^(m^2) <= ORACLE_LIMIT.

Z^2 needs only the m^2 |S| rows of delta^2 at the triples (g, h, s) with
s in a generating set S of G, not all m^3.  delta c(g, h, k) = 0 says the
twisted product on Z/n x G is associative at (x, y, z) over (g, h, k), and
the k at which that holds for every g, h are closed under products (Light's
associativity test, Clifford & Preston, The Algebraic Theory of Semigroups
I, 1961, section 1.2; see groups._check_associative).  So once they contain
S they are all of G.  ``groups.generating_set`` picks S with
|S| <= log2(m), once per group (``FiniteGroup.generators``).

Nor does Z^2 need all m^2 unknowns.  The row (g, h, s) of delta^2 reads

    c(g, hs) = c(g, h) + c(gh, s) - c(h, s)     (the recursion lemma),

and at h = e it reads c(e, s) = c(g, e), so every cocycle has c(g, e) =
c(e, s) = c(e, e) (the normalization lemma).  So a cocycle is fixed by
the (m - 1) |S| + 1 coordinates c(e, e) and c(g, s), g != e, s in S (the
cellular cochain complex of the Cayley complex of G, Brown, Cohomology of
Groups, GTM 87, 1982, ch. III-IV).  Take the breadth-first spanning tree
of the right Cayley graph Cay(G, S) from e.  Every t outside {e} U S has
a tree parent h with t = hs and h nearer to e, and the lift L copies
c(e, e) into c(., e) and c(e, s), copies the c(g, s), and fills the
column c(., t) from the column of h by the recursion.  L is linear and
injective, since it copies its input.  The rows of the tree edges hold by
construction of L and the rows (g, e, s) since both sides are copies of
c(e, e), so they vanish identically on its image and drop out.  A cocycle
c is L of its own coordinates, by the two lemmas, and L(x) is a cocycle
exactly when the other generator rows vanish on it.  So Z^2 = L(ker M),
where M is the generator rows of delta^2 composed with L, gathered from
the rows of L by the faces of ``delta`` (two broadcasts and two takes
through the table): at most m^2 |S| rows by (m - 1) |S| + 1 columns
instead of m^2 columns.  A coboundary is a cocycle, so it is L of its
coordinates too, and B^2 in coordinates is the image W of delta^1 on
their rows.

Its order is n^m / |ker delta^1|, and ker delta^1 = Hom(G, Z/n).  A
homomorphism is fixed by its values f(s), lifted along the same tree by
f(hs) = f(h) + f(s), and the lift is one exactly when that also holds on
the other edges (h, s) of Cay(G, S): |Hom| is the kernel of at most m |S|
rows by |S| columns.  In the coordinates of the SNF of M, Z^2 is a sum of
cyclic groups; the quotient H^2 = Z^2 / B^2 leaves out those of order 1,
which are zero on Z^2.  Representatives and Z^2 generators are lifted
through L, each representative as a weighted sum of the generators.  The
``cli`` row ``z2_full_delta`` checks them apart from this recursion: the
full delta over all m^3 triples on each generator, and each
representative against its weighted sum (delta is linear).
``counts_consistent`` checks |Z^2| from M against |B^2| from Hom times
|H^2| from the quotient.

The oracle keeps the full delta over all m^3 triples as its reference but
never builds the m^3 x m^2 matrix of delta^2 or the n^(m^2) cochains.  It
splits the m^2 coordinates in half, applies delta to the n^ceil(m^2/2)
cochains supported on each half, and joins the two halves whose
residuals cancel: every cocycle is found once, at a cost of at most
2 n^ceil(m^2/2) half cochains of m^3 residual entries each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, prod

import numpy as np

from .cochains import Cochain, _alternating_sum, delta, delta_stack
from .errors import CapacityError

MAX_GROUP_ORDER = 32
MAX_MODULUS = 8
ORACLE_LIMIT = 2**20
MAX_CLASS_ENUMERATION = 4096
# lifted values lie in [0, n), and the lift and a row of delta^2 add at most
# four of them with signs, so every intermediate is below 2n in magnitude:
# int8 holds it while n <= 64 (MAX_MODULUS is 8)
_LIFT_DTYPE = np.int8

def check_capacity(group, n):
    if n < 1:
        raise ValueError("modulus must be >= 1, got %d" % n)
    if group.order > MAX_GROUP_ORDER:
        raise CapacityError("group order %d exceeds guard %d"
                            % (group.order, MAX_GROUP_ORDER))
    if n > MAX_MODULUS:
        raise CapacityError("modulus %d outside guard 1..%d" % (n, MAX_MODULUS))


def delta_matrix(group, p):
    """Integer matrix of the bar differential M^p -> M^{p+1} (row-major):
    column j is the unreduced delta of the j-th unit p-cochain."""
    m = group.order
    units = np.eye(m ** p, dtype=np.int64).reshape((m ** p,) + (m,) * p)
    deltas = _alternating_sum(group.table, p, units)
    return np.ascontiguousarray(deltas.reshape(m ** p, -1).T)


# ---------------------------------------------------------------------------
# Smith normal form over Z/n with column transform tracking

def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for a > 0 and b >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@dataclass
class SNFResult:
    diag: list
    V: np.ndarray
    Vinv: np.ndarray


# Step t works on the trailing block S = A[t:, t:] with its pivot at
# S[0, 0]: the rows and columns before t are already cleared, so no
# operation of step t can change them.  A row operation acts on the rows
# of each array in ``fwd`` and, inversely, on the columns of each array in
# ``inv``; rows are not tracked, so it acts on S alone.  A column
# operation is the same row operation on the transposed views S.T and
# V[:, t:].T, with Vinv[t:].T as its inverse side.

def _swap(fwd, inv, i):
    """Exchange line i with the pivot line 0."""
    if i == 0:
        return
    for M in fwd:
        M[[0, i]] = M[[i, 0]]
    for M in inv:
        M[:, [0, i]] = M[:, [i, 0]]


def _eliminate(fwd, inv, rows, quotients, n):
    """rows[i] -= q[i] * row 0 (mod n), vectorized over many rows; only
    the columns where row 0 is nonzero change."""
    for M in fwd:
        cols = np.flatnonzero(M[0])
        block = np.ix_(rows, cols)
        M[block] = (M[block] - quotients[:, None] * M[0, cols]) % n
    for M in inv:
        M[:, 0] = (M[:, 0] + M[:, rows] @ quotients) % n


def _mix(a, b, x, y, p, q, n):
    """(a, b) <- (x a + y b, p b - q a) mod n, in place on two views."""
    a_old = a.copy()
    a[...] = (x * a_old + y * b) % n
    b[...] = (p * b - q * a_old) % n


def _bezout(fwd, inv, i, n):
    """Replace the pivot by gcd(pivot, entry i below it) through the
    determinant-one combination of rows 0 and i."""
    a, b = int(fwd[0][0, 0]), int(fwd[0][i, 0])
    g, x, y = _xgcd(a, b)
    p, q = a // g, b // g
    for M in fwd:
        _mix(M[0], M[i], x, y, p, q, n)
    for M in inv:
        _mix(M[:, 0], M[:, i], p, q, x, y, n)


def _clear(fwd, inv, n):
    """One pass against the entries below the pivot of fwd[0]: exact
    multiples are eliminated, the first other entry takes a Bezout step
    that strictly lowers the pivot.  False when nothing was left."""
    col = fwd[0][1:, 0]
    nz = np.nonzero(col)[0]
    if not len(nz):
        return False
    a = int(fwd[0][0, 0])
    rem = col[nz] % a
    exact = nz[rem == 0] + 1
    if len(exact):
        _eliminate(fwd, inv, exact, fwd[0][exact, 0] // a, n)
    hard = nz[rem != 0]
    if len(hard):
        _bezout(fwd, inv, 1 + int(hard[0]), n)
    return True


def _rank_one(S, V, Vinv, n):
    """Clear the pivot row and column of S at once when the pivot a
    divides (as integers) every entry of both, else return False: the
    arithmetic of ``_clear`` on the nonzero cross, V and Vinv."""
    a = int(S[0, 0])
    below = np.flatnonzero(S[1:, 0]) + 1
    right = np.flatnonzero(S[0, 1:]) + 1
    col, row = S[below, 0], S[0, right]
    if a > 1:
        if (col % a).any() or (row % a).any():
            return False
        col, row = col // a, row // a
    rows = below[:, None]
    S[rows, right] = (S[rows, right] - col[:, None] * S[0, right]) % n
    S[below, 0] = 0
    S[0, right] = 0
    live = np.flatnonzero(V[:, 0])[:, None]
    V[live, right] = (V[live, right] - V[live, 0] * row) % n
    Vinv[0] = (Vinv[0] + row @ Vinv[right]) % n
    return True


def _pivot(S, n):
    """Row-major first position of the smallest nonzero entry, or None.
    Rows are scanned in blocks of about 2^16 entries, so a hit near the
    top costs one block, not the whole of S."""
    step = max(1, 2**16 // S.shape[1])
    for v in range(1, n):
        for top in range(0, S.shape[0], step):
            hits = S[top:top + step] == v
            i = int(np.argmax(hits))
            if hits.flat[i]:
                row, col = divmod(i, S.shape[1])
                return top + row, col
    return None


def smith_normal_form(A, n):
    """Diagonalize A over Z/n by row and column operations invertible mod n.

    Every array is int64 with entries in [0, n).  Returns the nonzero
    diagonal plus the column transform V and its inverse, so that
    U A V = diag (mod n) for some invertible U that is not kept.  A caller
    that needs U of a matrix M runs M^T instead: U(M) = V(M^T)^T.  The
    pivot is the smallest nonzero residue left.  When it divides every
    entry of its row and column, one rank-1 update clears both; otherwise
    entries it divides are eliminated exactly and any other entry takes a
    Bezout step, which lowers the pivot, so a pivot takes at most n - 1 of
    them.  The diagonal is not normalized to a divisibility chain, which
    none of the callers need.
    """
    A = np.mod(np.asarray(A, dtype=np.int64), n)
    r, k = A.shape
    V, Vinv = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)
    diag = []
    for t in range(min(r, k)):
        S = A[t:, t:]
        at = _pivot(S, n)
        if at is None:
            break
        rows = ([S], [])
        cols = ([S.T, V[:, t:].T], [Vinv[t:].T])
        _swap(*rows, at[0])
        _swap(*cols, at[1])
        if not _rank_one(S, V[:, t:], Vinv[t:], n):
            while _clear(*rows, n) or _clear(*cols, n):
                pass
        diag.append(int(S[0, 0]))
    return SNFResult(diag=diag, V=V, Vinv=Vinv)


def _cyclic_orders(res, size, n):
    """Orders gcd(d_i, n) of the cyclic factors of a diagonal system with
    ``size`` rows or columns; a missing diagonal entry counts as n."""
    return [gcd(d, n) for d in res.diag] + [n] * (size - len(res.diag))


def kernel_mod(A, n):
    """Kernel of A over Z/n: (size, generator columns, orders).

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they generate.
    """
    res = smith_normal_form(A, n)
    gens, orders = [], []
    for i, g in enumerate(_cyclic_orders(res, A.shape[1], n)):
        if g > 1:
            gens.append(res.V[:, i] * (n // g) % n)
            orders.append(g)
    return prod(orders), gens, orders


def solve_mod(A, b, n):
    """One solution x of A x = b (mod n), or None.

    (x, t) is in the kernel of [A | -b] exactly when A x = t b, so the
    last coordinates of the kernel form the subgroup of Z/n generated by
    those of its generators.  Folding the generators by Bezout steps keeps
    a kernel vector whose last coordinate is their gcd t with n; the
    system is solvable exactly when t reaches 1, and that vector then
    ends in 1.
    """
    b = np.mod(np.asarray(b, dtype=np.int64), n)
    _, gens, _ = kernel_mod(np.column_stack([A, -b]), n)
    t, acc = n, np.zeros(A.shape[1] + 1, dtype=np.int64)
    for gen in gens:
        t, p, q = _xgcd(t, int(gen[-1]))
        acc = (p * acc + q * gen) % n
    return acc[:-1] if t == 1 else None


# ---------------------------------------------------------------------------
# second cohomology

@dataclass
class SecondCohomology:
    group: object
    modulus: int
    size: int
    z2_size: int
    b2_size: int
    invariant_factors: list
    representatives: list
    z2_generators: list
    # representative i is sum_j weights[i, j] z2_generators[j] (mod n)
    weights: np.ndarray


def _cayley_tree(table, gens):
    """Breadth-first spanning tree of the right Cayley graph Cay(G, S)
    from the identity 0, as the edges (t, h, s) with t = hs for every t
    outside {e} U S, parents before children.  The edges from e reach S
    and are left out: those columns are coordinates.  Raises
    AssertionError when ``gens`` does not generate the group."""
    reached = [0]
    seen = {0}
    edges = []
    for h in reached:
        for s in gens:
            t = int(table[h, s])
            if t not in seen:
                seen.add(t)
                reached.append(t)
                if h:
                    edges.append((t, h, int(s)))
    if len(reached) != table.shape[0]:
        raise AssertionError("the set %s does not generate the group"
                             % [int(s) for s in gens])
    return edges


def _lift(table, gens, tree, coords, n):
    """L applied to a stack of coordinate vectors, one per row: the
    degree-2 cochain values, shape (rows, m, m), that copy coordinate 0
    into c(., e) and c(e, s), coordinate 1 + (g - 1) |S| + j into
    c(g, gens[j]) for g != e, and fill every other column c(., t) along its
    tree edge (t, h, s) by c(g, hs) = c(g, h) + c(gh, s) - c(h, s).
    """
    m, r = table.shape[0], len(coords)
    c = np.zeros((r, m, m), dtype=_LIFT_DTYPE)
    c[:, :, 0] = c[:, 0, gens] = coords[:, :1]
    c[:, 1:, gens] = coords[:, 1:].reshape(r, m - 1, len(gens))
    for t, h, s in tree:
        c[:, :, t] = (c[:, :, h] + c[:, table[:, h], s]
                      - c[:, h, s][:, None]) % n
    return c


def _light_rows(table, L, gens, n):
    """The rows (g, h, s), s in ``gens``, of delta^2 composed with the lift
    L (its stack of lifted unit vectors), gathered from the rows of L by
    the faces of ``delta``: c(h, s) and c(g, h) are broadcasts, c(gh, s)
    and c(g, hs) are taken through the table.  Rows that vanish mod n, the
    tree edges and the rows (g, e, s) among them, are dropped."""
    m = table.shape[0]
    C = np.ascontiguousarray(L.reshape(len(L), m * m).T).reshape(m, m, -1)
    at_gens = C[:, gens]
    M = np.take(C, table[:, gens], axis=1)
    M -= np.take(at_gens, table, axis=0)
    M += at_gens
    M -= C[:, :, None]
    np.mod(M, n, out=M)
    M = M.reshape(m * m * len(gens), len(L))
    return M[M.any(axis=1)]


def _hom_rows(table, gens, tree, n):
    """The constraints on the values f(s), s in ``gens``, of a map f lifted
    along the Cayley tree by f(hs) = f(h) + f(s): one row f(hs) - f(h) -
    f(s) per edge (h, s) of Cay(G, S), dropping those that vanish mod n,
    the tree edges among them.  Its kernel is Hom(G, Z/n)."""
    m, r = table.shape[0], len(gens)
    F = np.zeros((m, r), dtype=np.int64)
    F[gens] = np.eye(r, dtype=np.int64)
    for t, h, s in tree:
        F[t] = F[h] + F[s]
    rows = (F[table[:, gens]] - F[:, None] - F[gens]).reshape(m * r, r) % n
    return rows[rows.any(axis=1)]


def second_cohomology(group, n):
    """H^2 = Z^2 / B^2 with one representative cocycle per class, solved in
    the (m - 1) |S| + 1 coordinates of the lift L (see the module
    docstring)."""
    check_capacity(group, n)
    m, table = group.order, group.table
    gens = group.generators
    tree = _cayley_tree(table, gens)
    k = (m - 1) * len(gens) + 1
    L = _lift(table, gens, tree, np.eye(k, dtype=_LIFT_DTYPE), n)
    res2 = smith_normal_form(_light_rows(table, L, gens, n), n)
    del L
    # B^2 = delta^1(C^1), and the kernel of delta^1 is Hom(G, Z/n)
    hom_size, _, _ = kernel_mod(_hom_rows(table, gens, tree, n), n)
    b2_size = n**m // hom_size
    # in the coordinates Vinv2 x, Z^2 is the sum of the cyclic groups
    # scale_i Z/n, of orders n / scale_i
    cyclic = _cyclic_orders(res2, k, n)
    z2_size = prod(cyclic)
    orders = np.array(cyclic, dtype=np.int64)
    scale = n // orders
    # B^2 in coordinates: delta^1 on the rows (e, e) and (g, s), g != e
    D1 = delta_matrix(group, 1).reshape(m, m, m)
    A1 = np.concatenate([D1[:1, 0], D1[1:, gens].reshape(-1, m)])
    W = res2.Vinv @ A1 % n
    if np.any(W % scale[:, None]):
        raise AssertionError("coboundary lattice escapes the cocycle lattice")
    # H^2 is the cokernel of M = [W / scale | diag(orders)] on the z
    # coordinates of order above 1, the others being zero on Z^2; its class
    # generators are the columns of U(M)^-1, which the SNF of M^T returns
    # as the rows of its Vinv
    z = orders > 1
    res3 = smith_normal_form(
        np.concatenate([(W[z] // scale[z, None]).T, np.diag(orders[z])]), n)
    factors = _cyclic_orders(res3, int(z.sum()), n)
    size = prod(factors)
    if size > MAX_CLASS_ENUMERATION:
        raise CapacityError("H^2 has %d classes; enumeration capped at %d"
                            % (size, MAX_CLASS_ENUMERATION))
    live = [j for j, f in enumerate(factors) if f > 1]
    combos = np.array(list(product(*(range(factors[j]) for j in live))),
                      dtype=np.int64).reshape(size, len(live))
    # the columns of V2 * scale of order above 1 generate Z^2 in coordinates
    basis = res2.V[:, z] * scale[z] % n
    weights = combos @ res3.Vinv[live] % n
    reps = [Cochain(group, n, 2, c)
            for c in _lift(table, gens, tree, weights @ basis.T % n, n)]
    z2_gens = [Cochain(group, n, 2, c)
               for c in _lift(table, gens, tree, basis.T, n)]
    invariants = sorted(f for f in factors if f > 1)
    return SecondCohomology(group, n, size, z2_size, b2_size, invariants,
                            reps, z2_gens, weights)


def cohomologous(c1, c2):
    """Degree-1 witness d with c1 - c2 = delta(d), or None."""
    c1._compatible(c2)
    if c1.degree != 2:
        raise ValueError("cohomologous applies to degree-2 cochains")
    group, n = c1.group, c1.modulus
    check_capacity(group, n)
    b = np.mod(c1.values.reshape(-1) - c2.values.reshape(-1), n)
    x = solve_mod(delta_matrix(group, 1), b, n)
    if x is None:
        return None
    d = Cochain(group, n, 1, x)
    if not (delta(d) - (c1 - c2)).is_zero:
        raise AssertionError("solve_mod witness fails delta(d) = c1 - c2")
    return d


# ---------------------------------------------------------------------------
# exhaustive oracle (ground truth for small groups)

def _enumeration_count(group, n, degree):
    m = group.order
    count = 1
    for _ in range(m**degree):
        count *= n
        if count > ORACLE_LIMIT:
            raise CapacityError(
                "exhaustive enumeration needs %d^%d > %d cochains"
                % (n, m**degree, ORACLE_LIMIT))
    return count


def _digit_rows(n, width):
    """All n^width vectors over Z/n, one per row; digit j of the row
    index in base n is entry j."""
    idx = np.arange(n**width, dtype=np.int64)[:, None]
    powers = n ** np.arange(width, dtype=np.int64)[None, :]
    return (idx // powers) % n


def all_cochain_values(group, n, degree):
    """All maps G^degree -> Z/n, one per row, flat row-major."""
    _enumeration_count(group, n, degree)
    return _digit_rows(n, group.order**degree)


def _half_cochains(n, start, stop, k):
    """Every degree-2 cochain that is zero outside the flat coordinates
    start..stop-1, as rows of length k in the order of ``_digit_rows``."""
    rows = np.zeros((n**(stop - start), k), dtype=np.int64)
    rows[:, start:stop] = _digit_rows(n, stop - start)
    return rows


def exhaustive_cocycles(group, n):
    """All degree-2 cocycles, each once, by meet in the middle.

    Every flat cochain c splits uniquely as c_L + c_R, with c_L zero past
    the first ceil(m^2/2) coordinates and c_R zero before them.  delta is
    linear, so c is a cocycle exactly when delta(c_L) = -delta(c_R) mod n:
    both half residuals are taken with the full delta over all m^3 triples
    and joined on exact equality (Horowitz & Sahni, J. ACM 21, 1974).  The
    cost is at most 2 n^ceil(m^2/2) half cochains and their m^3 residuals,
    not the n^(m^2) cochains of a direct filter.  Rows come out in
    ascending order of the base-n number whose digit j is coordinate j, as
    in ``all_cochain_values``.  Raises CapacityError, before allocating
    anything, when n^(m^2) exceeds ORACLE_LIMIT.
    """
    _enumeration_count(group, n, 2)
    m = group.order
    k = m * m
    split = (k + 1) // 2
    left = _half_cochains(n, 0, split, k)
    right = _half_cochains(n, split, k, k)
    # residues fit the smallest unsigned type, which keeps the join keys
    # short without letting two residues collide
    key_dtype = np.min_scalar_type(n - 1)
    r_left = delta_stack(group, n, 2, left.reshape(-1, m, m))
    r_right = np.mod(-delta_stack(group, n, 2, right.reshape(-1, m, m)), n)
    r_left, r_right = r_left.astype(key_dtype), r_right.astype(key_dtype)
    matches = {}
    for i, r in enumerate(r_left):
        matches.setdefault(r.tobytes(), []).append(i)
    pairs = [(i, j) for j, r in enumerate(r_right)
             for i in matches.get(r.tobytes(), ())]
    li, rj = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return left[li] + right[rj]


def exhaustive_coboundaries(group, n):
    """All of B^2 as int64 rows in lexicographic order: delta of every
    degree-1 cochain, in blocks of 4096 deduplicated on uint8 row keys."""
    ones = all_cochain_values(group, n, 1)
    A = delta_matrix(group, 1)
    key = np.dtype((np.void, A.shape[0]))
    keys = np.unique(np.concatenate([
        np.unique(np.mod(ones[i:i + 4096] @ A.T, n).astype(np.uint8).view(key))
        for i in range(0, len(ones), 4096)]))
    return keys.view(np.uint8).reshape(len(keys), -1).astype(np.int64)


def class_key(flat, coboundaries, n):
    """Canonical label of a cohomology class: lexicographic minimum of
    the coboundary coset, as uint8 bytes."""
    coset = np.mod(np.asarray(flat, dtype=np.int64) - coboundaries,
                   n).astype(np.uint8)
    # lexsort's last key is its primary one
    return coset[np.lexsort(coset.T[::-1])[0]].tobytes()


@dataclass
class OracleClassification:
    z2_size: int
    b2_size: int
    h2_size: int
    class_keys: list
    coboundaries: np.ndarray = field(repr=False)

    def key(self, cochain):
        """``class_key`` of a degree-2 cochain against the enumerated B^2."""
        return class_key(cochain.values.reshape(-1), self.coboundaries,
                         cochain.modulus)


def exhaustive_second_cohomology(group, n):
    """Exhaustive classification: enumerate Z^2 (meet in the middle) and
    B^2, then partition Z^2 into B^2 cosets.

    Raises CapacityError when n^(m^2) exceeds ORACLE_LIMIT."""
    cocycles = exhaustive_cocycles(group, n)
    coboundaries = exhaustive_coboundaries(group, n)
    keys = sorted({class_key(c, coboundaries, n) for c in cocycles})
    return OracleClassification(
        z2_size=len(cocycles),
        b2_size=len(coboundaries),
        h2_size=len(keys),
        class_keys=keys,
        coboundaries=coboundaries,
    )
