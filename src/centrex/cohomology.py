"""Cocycles, coboundaries and second cohomology over Z/n by linear algebra.

The condition delta(c) = 0 is Z/n-linear in the m^2 unknown values of a
degree-2 cochain, so Z^2 is the kernel of an integer matrix mod n, B^2 is
the image of the degree-1 differential, and H^2 = Z^2 / B^2 is a quotient
of lattices computed through Smith normal form.  A brute-force enumeration
oracle is provided independently for small cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, prod

import numpy as np

from .cochains import Cochain, _face_grids, delta
from .errors import CapacityError

MAX_GROUP_ORDER = 32
MAX_MODULUS = 8
ORACLE_LIMIT = 2**20
MAX_CLASS_ENUMERATION = 4096

_PROMOTE_LIMIT = 2**20  # promote SNF arrays to python ints past this


def check_capacity(group, n):
    if group.order > MAX_GROUP_ORDER:
        raise CapacityError("group order %d exceeds guard %d"
                            % (group.order, MAX_GROUP_ORDER))
    if not 1 <= n <= MAX_MODULUS:
        raise CapacityError("modulus %d outside guard 1..%d" % (n, MAX_MODULUS))


def delta_matrix(group, p):
    """Integer matrix of the bar differential M^p -> M^{p+1} (row-major),
    built from the same face grids as ``delta``."""
    m = group.order
    rows, cols = m ** (p + 1), m ** p
    A = np.zeros((rows, cols), dtype=np.int64)
    grids = np.indices((m,) * (p + 1)).reshape(p + 1, -1)
    row_ids = np.arange(rows)
    for i in range(p + 2):
        face = _face_grids(group.table, grids, i)
        col_ids = np.ravel_multi_index(face, (m,) * p) if p else 0
        np.add.at(A, (row_ids, col_ids), (-1) ** i)
    return A


# ---------------------------------------------------------------------------
# Smith normal form with transform tracking

def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass
class SNFResult:
    diag: list
    V: np.ndarray
    Vinv: np.ndarray
    U: np.ndarray | None = None
    Uinv: np.ndarray | None = None


class _SNFState:
    def __init__(self, A, track_u):
        self.A = np.array(A, dtype=np.int64, copy=True)
        r, k = self.A.shape
        self.V = np.eye(k, dtype=np.int64)
        self.Vinv = np.eye(k, dtype=np.int64)
        self.track_u = track_u
        self.U = np.eye(r, dtype=np.int64) if track_u else None
        self.Uinv = np.eye(r, dtype=np.int64) if track_u else None
        self.object_mode = False

    def _promote_if_needed(self):
        if self.object_mode:
            return
        arrays = [self.A, self.V, self.Vinv]
        if self.track_u:
            arrays += [self.U, self.Uinv]
        if any(np.abs(a).max(initial=0) > _PROMOTE_LIMIT for a in arrays):
            self.A = self.A.astype(object)
            self.V = self.V.astype(object)
            self.Vinv = self.Vinv.astype(object)
            if self.track_u:
                self.U = self.U.astype(object)
                self.Uinv = self.Uinv.astype(object)
            self.object_mode = True

    # elementary operations -------------------------------------------------

    def swap_rows(self, i, j):
        if i == j:
            return
        self.A[[i, j]] = self.A[[j, i]]
        if self.track_u:
            self.U[[i, j]] = self.U[[j, i]]
            self.Uinv[:, [i, j]] = self.Uinv[:, [j, i]]

    def swap_cols(self, i, j):
        if i == j:
            return
        self.A[:, [i, j]] = self.A[:, [j, i]]
        self.V[:, [i, j]] = self.V[:, [j, i]]
        self.Vinv[[i, j]] = self.Vinv[[j, i]]

    def negate_row(self, i):
        self.A[i] = -self.A[i]
        if self.track_u:
            self.U[i] = -self.U[i]
            self.Uinv[:, i] = -self.Uinv[:, i]

    def add_rows(self, rows, quotients, t):
        """rows[i] -= q[i] * row t, vectorized over many rows."""
        q = quotients[:, None]
        self.A[rows] -= q * self.A[t][None, :]
        if self.track_u:
            self.U[rows] -= q * self.U[t][None, :]
            self.Uinv[:, t] += self.Uinv[:, rows] @ quotients

    def add_cols(self, cols, quotients, t):
        """cols[j] -= q[j] * col t."""
        q = quotients[None, :]
        self.A[:, cols] -= q * self.A[:, t][:, None]
        self.V[:, cols] -= q * self.V[:, t][:, None]
        self.Vinv[t] += quotients @ self.Vinv[cols]

    def bezout_rows(self, t, i):
        a, b = int(self.A[t, t]), int(self.A[i, t])
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        rt, ri = self.A[t].copy(), self.A[i].copy()
        self.A[t] = x * rt + y * ri
        self.A[i] = -q * rt + p * ri
        if self.track_u:
            ut, ui = self.U[t].copy(), self.U[i].copy()
            self.U[t] = x * ut + y * ui
            self.U[i] = -q * ut + p * ui
            ct, ci = self.Uinv[:, t].copy(), self.Uinv[:, i].copy()
            self.Uinv[:, t] = p * ct + q * ci
            self.Uinv[:, i] = -y * ct + x * ci

    def bezout_cols(self, t, j):
        a, b = int(self.A[t, t]), int(self.A[t, j])
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        ct, cj = self.A[:, t].copy(), self.A[:, j].copy()
        self.A[:, t] = x * ct + y * cj
        self.A[:, j] = -q * ct + p * cj
        vt, vj = self.V[:, t].copy(), self.V[:, j].copy()
        self.V[:, t] = x * vt + y * vj
        self.V[:, j] = -q * vt + p * vj
        rt, rj = self.Vinv[t].copy(), self.Vinv[j].copy()
        self.Vinv[t] = p * rt + q * rj
        self.Vinv[j] = -y * rt + x * rj


def smith_normal_form(A, track_u=False):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns diag plus the column transform V (and its inverse) such that the
    solution sets of A x = b are carried to the diagonal system; U/Uinv are
    tracked on request.  The diagonal is not normalized to a divisibility
    chain, which none of the callers need.
    """
    st = _SNFState(np.asarray(A), track_u)
    r, k = st.A.shape
    diag = []
    for t in range(min(r, k)):
        st._promote_if_needed()
        sub = st.A[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        vals = np.abs(sub[nz])
        best = int(np.argmin(vals))
        st.swap_rows(t, t + int(nz[0][best]))
        st.swap_cols(t, t + int(nz[1][best]))
        while True:
            st._promote_if_needed()
            col = st.A[t + 1:, t]
            nz_rows = np.nonzero(col)[0]
            if len(nz_rows):
                a = int(st.A[t, t])
                rem = col[nz_rows] % a
                exact = nz_rows[rem == 0]
                if len(exact):
                    rows = exact + t + 1
                    st.add_rows(rows, st.A[rows, t] // a, t)
                hard = nz_rows[rem != 0]
                if len(hard):
                    st.bezout_rows(t, t + 1 + int(hard[0]))
                continue
            row = st.A[t, t + 1:]
            nz_cols = np.nonzero(row)[0]
            if len(nz_cols):
                a = int(st.A[t, t])
                rem = row[nz_cols] % a
                exact = nz_cols[rem == 0]
                if len(exact):
                    cols = exact + t + 1
                    st.add_cols(cols, st.A[t, cols] // a, t)
                hard = nz_cols[rem != 0]
                if len(hard):
                    st.bezout_cols(t, t + 1 + int(hard[0]))
                continue
            break
        if st.A[t, t] < 0:
            st.negate_row(t)
        diag.append(int(st.A[t, t]))
    return SNFResult(diag=diag, V=st.V, Vinv=st.Vinv, U=st.U, Uinv=st.Uinv)


def kernel_mod(A, n):
    """Kernel of A over Z/n: (size, generator columns, orders, snf result).

    The generators are independent: the kernel is the direct sum of the
    cyclic groups they generate.
    """
    res = smith_normal_form(A)
    k = A.shape[1]
    gens, orders = [], []
    size = 1
    for i in range(k):
        d = res.diag[i] if i < len(res.diag) else 0
        g = gcd(d, n)
        size *= g
        if g > 1:
            gens.append(np.mod(res.V[:, i] * (n // g), n).astype(np.int64))
            orders.append(g)
    return size, gens, orders, res


def solve_mod(A, b, n):
    """One solution x of A x = b (mod n), or None."""
    res = smith_normal_form(A, track_u=True)
    r, k = A.shape
    c = res.U @ np.asarray(b, dtype=res.U.dtype)
    z = np.zeros(k, dtype=np.int64)
    for i in range(r):
        ci = int(c[i]) % n
        d = res.diag[i] if i < len(res.diag) else 0
        if i >= k or d == 0:
            if ci != 0:
                return None
            continue
        g = gcd(d, n)
        if ci % g:
            return None
        nn = n // g
        z[i] = (ci // g) * pow(d // g, -1, nn) % nn if nn > 1 else 0
    x = res.V @ z.astype(res.V.dtype)
    return np.mod(x, n).astype(np.int64)


# ---------------------------------------------------------------------------
# cocycle / coboundary / cohomology spaces

@dataclass
class CocycleSpace:
    group: object
    modulus: int
    size: int
    generators: list
    orders: list
    snf: SNFResult = field(repr=False, default=None)

    def sample(self, rng):
        """Seeded random cocycle: random coefficients against the generators."""
        m = self.group.order
        flat = np.zeros(m * m, dtype=np.int64)
        for gen, order in zip(self.generators, self.orders):
            flat = flat + int(rng.integers(0, order)) * gen.values.reshape(-1)
        return Cochain(self.group, self.modulus, 2, flat % self.modulus)


@dataclass
class CoboundarySpace:
    group: object
    modulus: int
    size: int
    generators: list
    kernel_size: int


@dataclass
class SecondCohomology:
    group: object
    modulus: int
    size: int
    z2_size: int
    b2_size: int
    invariant_factors: list
    representatives: list


def cocycle_space(group, n):
    """Solution set of delta(c) = 0 in degree 2 over Z/n."""
    check_capacity(group, n)
    return _cocycle_space(group, n)


def coboundary_space(group, n):
    """Image of the degree-1 differential over Z/n."""
    check_capacity(group, n)
    return _coboundary_space(group, n, delta_matrix(group, 1))


def _cocycle_space(group, n):
    size, gens, orders, res = kernel_mod(delta_matrix(group, 2), n)
    generators = [Cochain(group, n, 2, g) for g in gens]
    return CocycleSpace(group, n, size, generators, orders, res)


def _coboundary_space(group, n, A):
    """B^2 as the image of the degree-1 delta matrix A."""
    m = group.order
    ker_size, _, _, _ = kernel_mod(A, n)
    size = n**m // ker_size
    generators = [Cochain(group, n, 2, np.mod(A[:, j], n)) for j in range(m)]
    return CoboundarySpace(group, n, size, generators, ker_size)


def second_cohomology(group, n, max_classes=MAX_CLASS_ENUMERATION):
    """H^2 = Z^2 / B^2 with one representative cocycle per class."""
    check_capacity(group, n)
    zspace = _cocycle_space(group, n)
    A1 = delta_matrix(group, 1)
    bspace = _coboundary_space(group, n, A1)
    m = group.order
    k = m * m
    res2 = zspace.snf
    diag2 = res2.diag + [0] * (k - len(res2.diag))
    scale = np.array([n // gcd(d, n) for d in diag2], dtype=object)
    # lattice of cocycle lifts: columns of V2 * scale span {x : delta x = 0 mod n}
    BZ = res2.V.astype(object) * scale[None, :]
    MB = np.concatenate([A1.astype(object), n * np.eye(k, dtype=object)],
                        axis=1)
    W = res2.Vinv.astype(object) @ MB
    if np.any(np.vectorize(lambda w, s: w % s)(W, scale[:, None]) != 0):
        raise AssertionError("coboundary lattice escapes the cocycle lattice")
    C = np.vectorize(lambda w, s: w // s, otypes=[object])(W, scale[:, None])
    res3 = smith_normal_form(C, track_u=True)
    factors = [int(d) for d in res3.diag]
    if len(factors) != k or any(f == 0 for f in factors):
        raise AssertionError("quotient lattice is not full rank")
    size = prod(factors)
    if size != zspace.size // bspace.size or zspace.size % bspace.size:
        raise AssertionError("|Z^2| != |B^2| * |H^2|")
    if size > max_classes:
        raise CapacityError("H^2 has %d classes; enumeration capped at %d"
                            % (size, max_classes))
    live = [j for j, f in enumerate(factors) if f > 1]
    reps = []
    for combo in product(*(range(factors[j]) for j in live)):
        w = np.zeros(k, dtype=object)
        for j, t in zip(live, combo):
            w = w + t * res3.Uinv[:, j]
        flat = np.array([int(v) % n for v in (BZ @ w)], dtype=np.int64)
        reps.append(Cochain(group, n, 2, flat))
    invariants = sorted(f for f in factors if f > 1)
    return SecondCohomology(group, n, size, zspace.size, bspace.size,
                            invariants, reps)


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


def all_cochain_values(group, n, degree):
    """All maps G^degree -> Z/n, one per row, flat row-major."""
    count = _enumeration_count(group, n, degree)
    width = group.order**degree
    idx = np.arange(count, dtype=np.int64)[:, None]
    powers = n ** np.arange(width, dtype=np.int64)[None, :]
    return (idx // powers) % n


def exhaustive_cocycles(group, n):
    """All degree-2 cocycles by filtering every map with delta(c) = 0."""
    candidates = all_cochain_values(group, n, 2)
    A = delta_matrix(group, 2)
    residual = np.mod(candidates @ A.T, n)
    return candidates[~residual.any(axis=1)]

def exhaustive_coboundaries(group, n):
    """All of B^2 by applying delta to every degree-1 cochain."""
    ones = all_cochain_values(group, n, 1)
    A = delta_matrix(group, 1)
    coboundaries = np.mod(ones @ A.T, n)
    return np.unique(coboundaries, axis=0)


def class_key(flat, coboundaries, n):
    """Canonical label of a cohomology class: lexicographic minimum of
    the coboundary coset, as bytes."""
    coset = np.mod(np.asarray(flat, dtype=np.int64)[None, :] - coboundaries, n)
    return min(row.astype(np.uint8).tobytes() for row in coset)


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
    """Brute-force classification: enumerate, filter, partition.

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
