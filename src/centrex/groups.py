"""Finite groups as dense multiplication tables, plus a small catalog.

Elements are the indices 0..m-1 and index 0 is always the identity.
``table[g, h]`` is the index of g*h.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np


def _closure(product, members):
    """Smallest superset of the boolean mask ``members`` closed under
    ``product(x, y)``, the element-wise product of two broadcast index
    arrays.  Each round multiplies the members by each other, so on a group
    the rounds grow like log2 of the longest word needed."""
    members = members.copy()
    while True:
        inside = np.flatnonzero(members)
        reached = np.zeros_like(members)
        reached[product(inside[:, None], inside)] = True
        if not (reached & ~members).any():
            return members
        members |= reached


def _identity(table):
    """Index of the two-sided identity of a Latin square, or None."""
    ref = np.arange(table.shape[0])
    hits = np.flatnonzero((table == ref).all(axis=1)
                          & (table == ref[:, None]).all(axis=0))
    return int(hits[0]) if hits.size else None


def generating_set(table):
    """Ascending S whose closure under the table product is every element.

    Greedy: S takes the smallest element not yet reached, and the closure
    of S (with the identity, when there is one) grows by products.  The
    identity never enters S.  On a group the closure of S is the subgroup
    it generates, and each new element at least doubles it, so
    |S| <= log2(m).
    """
    members = np.zeros(table.shape[0], dtype=bool)
    e = _identity(table)
    if e is not None:
        members[e] = True
    gens = []
    while not members.all():
        s = int(np.argmin(members))
        gens.append(s)
        members[s] = True
        members = _closure(lambda x, y: table[x, y], members)
    return np.array(gens, dtype=np.int64)


def _check_associative(table, gens):
    """The first (g, h, k) in row-major order with (gh)k != g(hk) and k in
    ``gens = generating_set(table)``, or None.

    Light's test: for any magma the set of k with (xy)k = x(yk) for all
    x, y is closed under products, since (xy)(st) = ((xy)s)t = (x(ys))t
    = x((ys)t) = x(y(st)) when s and t are in it.  So it holds everywhere
    as soon as it holds on a set whose closure is everything, and m^2 |S|
    products decide what m^3 would.  Chunked over g.
    """
    m = table.shape[0]
    right = table[:, gens]
    chunk = max(1, 2**22 // max(m * gens.size, 1))
    for g0 in range(0, m, chunk):
        rows = table[g0:g0 + chunk]
        lhs = table[rows[:, :, None], gens]
        rhs = rows[:, right]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            g, h, j = bad[0]
            return int(g0 + g), int(h), int(gens[j])
    return None


def _validate_table(table):
    """Check that ``table`` is the table of a group; return the generating
    set that Light's test used."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("multiplication table must be square")
    m = table.shape[0]
    if m == 0:
        raise ValueError("group must be nonempty")
    if table.min() < 0 or table.max() >= m:
        raise ValueError("table entries must be element indices in 0..%d" % (m - 1))
    ref = np.arange(m)
    rows_ok = np.array_equal(np.sort(table, axis=1), np.broadcast_to(ref, (m, m)))
    cols_ok = np.array_equal(np.sort(table, axis=0),
                             np.broadcast_to(ref[:, None], (m, m)))
    if not (rows_ok and cols_ok):
        raise ValueError("table is not a Latin square")
    gens = generating_set(table)
    bad = _check_associative(table, gens)
    if bad is not None:
        raise ValueError("table is not associative at (g, h, k) = %r" % (bad,))
    gens.setflags(write=False)
    return gens


class FiniteGroup:
    """A finite group given by its multiplication table with identity 0;
    ``generators`` is the read-only S of Light's test, which H^2 reuses."""

    def __init__(self, table, name=""):
        table = np.ascontiguousarray(table, dtype=np.int64)
        self.generators = _validate_table(table)
        m = table.shape[0]
        ref = np.arange(m)
        if not (np.array_equal(table[0], ref) and np.array_equal(table[:, 0], ref)):
            raise ValueError("element 0 is not the identity")
        table.setflags(write=False)
        self.table = table
        self.order = m
        self.name = name or "G%d" % m
        rows, cols = np.nonzero(table == 0)
        inv = np.empty(m, dtype=np.int64)
        inv[rows] = cols
        inv.setflags(write=False)
        self.inverse = inv

    identity = 0

    def mul(self, g, h):
        return int(self.table[g, h])

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


# ---------------------------------------------------------------------------
# structural fingerprinting (one-way discriminator, not a classifier)

@dataclass(frozen=True)
class GroupFingerprint:
    order: int
    element_orders: tuple
    is_abelian: bool
    center_order: int
    derived_order: int


def _element_orders(table, e, elements=None):
    """Order of each of ``elements`` (default: all) in a group table with
    identity ``e``: the powers of the whole batch advance together."""
    x = np.arange(table.shape[0]) if elements is None else np.asarray(elements)
    orders = np.zeros(x.shape, dtype=np.int64)
    power, k = x, 1
    while True:
        done = (power == e) & (orders == 0)
        orders[done] = k
        if orders.all():
            return orders
        power = table[power, x]
        k += 1


def table_fingerprint(table, e):
    """Fingerprint of an arbitrary group table with identity index ``e``."""
    table = np.asarray(table, dtype=np.int64)
    m = table.shape[0]
    orders = _element_orders(table, e)
    abelian = np.array_equal(table, table.T)
    central = np.all(table == table.T, axis=1) if not abelian else np.ones(m, bool)
    center_order = int(np.count_nonzero(central))
    rows, cols = np.nonzero(table == e)
    inv = np.empty(m, dtype=np.int64)
    inv[rows] = cols
    # [g, h] = (g h)(g^-1 h^-1); the derived subgroup is their closure
    derived = np.zeros(m, dtype=bool)
    derived[table[table, table[inv[:, None], inv[None, :]]]] = True
    derived = _closure(lambda x, y: table[x, y], derived)
    return GroupFingerprint(
        order=m,
        element_orders=tuple(sorted(int(k) for k in orders)),
        is_abelian=bool(abelian),
        center_order=center_order,
        derived_order=int(np.count_nonzero(derived)),
    )


def fingerprint(group):
    """Fingerprint of a FiniteGroup or ExtensionGroup.

    Two groups with different fingerprints are non-isomorphic; equal
    fingerprints prove nothing.
    """
    e = getattr(group, "identity", 0)
    return table_fingerprint(group.table, e)


# ---------------------------------------------------------------------------
# catalog

def cyclic(m, name=None):
    idx = np.arange(m)
    return FiniteGroup((idx[:, None] + idx[None, :]) % m, name or "Z%d" % m)


def direct_product(a, b, name=None):
    ma, mb = a.order, b.order
    ia = np.arange(ma * mb) // mb
    ib = np.arange(ma * mb) % mb
    table = a.table[ia[:, None], ia[None, :]] * mb + b.table[ib[:, None], ib[None, :]]
    return FiniteGroup(table, name or "%sx%s" % (a.name, b.name))


def klein_four():
    return direct_product(cyclic(2), cyclic(2), name="Z2xZ2")


def symmetric3():
    perms = sorted(permutations(range(3)))  # identity (0,1,2) sorts first
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(3))]
    return FiniteGroup(table, "S3")


def dihedral(k, name=None):
    """Dihedral group of order 2k: pairs (rotation, flip) indexed i + k*flip."""
    if k < 1:
        raise ValueError("k must be positive")
    m = 2 * k
    table = np.empty((m, m), dtype=np.int64)
    for x in range(m):
        a, e = x % k, x // k
        for y in range(m):
            b, f = y % k, y // k
            rot = (a + b) % k if e == 0 else (a - b) % k
            table[x, y] = rot + k * (e ^ f)
    return FiniteGroup(table, name or "D%d" % k)


def quaternion8():
    """Quaternion group via the eight unit quaternions as 2x2 matrices."""
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    k = i @ j
    one = np.eye(2, dtype=complex)
    units = [one, -one, i, -i, j, -j, k, -k]
    table = np.empty((8, 8), dtype=np.int64)
    for a, ua in enumerate(units):
        for b, ub in enumerate(units):
            prod = ua @ ub
            table[a, b] = next(
                c for c, uc in enumerate(units) if np.allclose(prod, uc)
            )
    return FiniteGroup(table, "Q8")


def catalog():
    """The named groups used throughout the test batteries."""
    return {
        "Z2": cyclic(2),
        "Z3": cyclic(3),
        "Z4": cyclic(4),
        "Z2xZ2": klein_four(),
        "S3": symmetric3(),
        "D4": dihedral(4),
        "Q8": quaternion8(),
    }


# ---------------------------------------------------------------------------
# table file format: line 1 = m, then m rows of m indices; 0 is the identity

def parse_group_table(text, name=""):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty group table file")
    try:
        m = int(lines[0].strip())
    except ValueError:
        raise ValueError("line 1: expected the group order, got %r" % lines[0])
    if m < 1:
        raise ValueError("line 1: group order must be positive")
    if len(lines) != m + 1:
        raise ValueError("expected %d table rows, found %d" % (m, len(lines) - 1))
    table = np.empty((m, m), dtype=np.int64)
    for r, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != m:
            raise ValueError("line %d: expected %d entries, found %d"
                             % (r, m, len(parts)))
        for c, tok in enumerate(parts):
            try:
                table[r - 2, c] = int(tok)
            except (ValueError, OverflowError):
                raise ValueError("line %d, column %d: %r is not an element "
                                 "index" % (r, c + 1, tok))
    return FiniteGroup(table, name)


def load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_group_table(text, name=os.path.splitext(os.path.basename(path))[0])
