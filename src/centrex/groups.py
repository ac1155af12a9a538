"""Finite groups as dense multiplication tables, plus a small catalog.

Elements are the indices 0..m-1 and index 0 is always the identity.
``table[g, h]`` is the index of g*h.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np


def _check_associative(table):
    """Return the first non-associative triple, or None.  O(m^3), chunked."""
    m = table.shape[0]
    chunk = max(1, 2**22 // max(m * m, 1))
    for k0 in range(0, m, chunk):
        ks = np.arange(k0, min(k0 + chunk, m))
        lhs = table[table[:, :, None], ks[None, None, :]]
        rhs = table[:, table[:, ks]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            g, h, j = bad[0]
            return int(g), int(h), int(ks[j])
    return None


def _validate_table(table):
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
    bad = _check_associative(table)
    if bad is not None:
        raise ValueError("table is not associative at (g, h, k) = %r" % (bad,))
    return m


class FiniteGroup:
    """A finite group given by its multiplication table with identity 0."""

    def __init__(self, table, name=""):
        table = np.ascontiguousarray(table, dtype=np.int64)
        m = _validate_table(table)
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

    def inv(self, g):
        return int(self.inverse[g])

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


def _element_orders(table, e):
    m = table.shape[0]
    orders = np.empty(m, dtype=np.int64)
    for g in range(m):
        x, k = g, 1
        while x != e:
            x = table[x, g]
            k += 1
        orders[g] = k
    return orders


def _closure(table, seed):
    """Subgroup generated by ``seed`` under the table product."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        base = list(members)
        for a in frontier:
            for b in base:
                for c in (int(table[a, b]), int(table[b, a])):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return members


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
    commutators = {
        int(table[table[g, h], table[inv[g], inv[h]]])
        for g in range(m)
        for h in range(m)
    }
    derived = _closure(table, commutators | {int(e)})
    return GroupFingerprint(
        order=m,
        element_orders=tuple(sorted(int(k) for k in orders)),
        is_abelian=bool(abelian),
        center_order=center_order,
        derived_order=len(derived),
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


def format_group_table(group):
    lines = [str(group.order)]
    for row in group.table:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_group_table(text, name=os.path.splitext(os.path.basename(path))[0])
