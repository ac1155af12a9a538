"""Central extension groups built from degree-2 cocycles.

Given a cocycle c on G with values in Z/n, the set Z/n x G with product
(a, g) * (b, h) = (a + b + c(g, h), g h) is a group; the pair (a, g) is
stored at index a*m + g.  The product is associative exactly when c is a
cocycle, and the identity is (-c(e, e), e), which need not be index 0
because unnormalized cocycles are allowed.
"""

from __future__ import annotations

import numpy as np

from .cochains import delta, violating_triple
from .errors import CocycleError
from .groups import (FiniteGroup, _element_orders, _validate_table,
                     table_fingerprint)


class ExtensionGroup:
    """The extension of ``base`` by Z/n twisted by ``cocycle``."""

    def __init__(self, cocycle):
        base = cocycle.group
        n, m = cocycle.modulus, base.order
        if cocycle.degree != 2:
            raise ValueError("extension requires a degree-2 cochain")
        bad = violating_triple(cocycle)
        if bad is not None:
            raise CocycleError(bad)
        order = n * m
        idx = np.arange(order)
        a, g = idx // m, idx % m
        table = (
            ((a[:, None] + a[None, :] + cocycle.values[g[:, None], g[None, :]])
             % n) * m
            + base.table[g[:, None], g[None, :]]
        ).astype(np.int64)
        _validate_table(table)
        c_ee = int(cocycle.values[0, 0])
        e = ((-c_ee) % n) * m
        ref = np.arange(order)
        if not (np.array_equal(table[e], ref) and np.array_equal(table[:, e], ref)):
            raise AssertionError("derived identity (-c(e,e), e) is not neutral")
        rows, cols = np.nonzero(table == e)
        inverse = np.empty(order, dtype=np.int64)
        inverse[rows] = cols
        # projection (a, g) -> g must be a homomorphism onto the base
        if not np.array_equal(table % m, base.table[g[:, None], g[None, :]]):
            raise AssertionError("projection is not a homomorphism")
        # the kernel {(a, e)} must be central and cyclic of order n
        kernel = idx[g == 0]
        if not np.array_equal(table[kernel, :], table[:, kernel].T):
            raise AssertionError("kernel of the projection is not central")
        korders = _element_orders(table, e, kernel)
        if sorted(korders.tolist()) != sorted(_cyclic_orders(n)):
            raise AssertionError("kernel is not cyclic of order n")
        table.setflags(write=False)
        inverse.setflags(write=False)
        self.base = base
        self.modulus = n
        self.cocycle = cocycle
        self.table = table
        self.order = order
        self.identity = e
        self.inverse = inverse
        self.name = "ext(%s, n=%d)" % (base.name, n)

    def pair_index(self, a, g):
        return int(a) % self.modulus * self.base.order + int(g)

    def pair(self, index):
        return int(index) // self.base.order, int(index) % self.base.order

    def project(self, index):
        return int(index) % self.base.order

    def mul(self, x, y):
        return int(self.table[x, y])

    def inv(self, x):
        return int(self.inverse[x])

    def to_finite_group(self):
        """Relabel so the identity sits at index 0 (for table file output)."""
        e = self.identity
        sigma = np.arange(self.order)
        sigma[[0, e]] = sigma[[e, 0]]
        table = sigma[self.table[sigma[:, None], sigma[None, :]]]
        return FiniteGroup(table, name=self.name)

    def __repr__(self):
        return "ExtensionGroup(%s, order=%d)" % (self.name, self.order)


def _cyclic_orders(n):
    from math import gcd
    return [n // gcd(a, n) for a in range(n)]


def build_extension(cocycle):
    """Construct the extension group, verifying every group axiom.

    Raises CocycleError (with the violating triple) unless delta(c) = 0.
    """
    return ExtensionGroup(cocycle)


def extension_fingerprint(cocycle):
    ext = build_extension(cocycle)
    return table_fingerprint(ext.table, ext.identity)


def pair_isomorphism(c_from, c_to, witness):
    """Index permutation realizing E(c_from) ~ E(c_to).

    Requires c_to = c_from + delta(witness); the map is
    (a, g) -> (a - witness(g), g).
    """
    c_from._compatible(c_to)
    n, m = c_from.modulus, c_from.group.order
    if not (delta(witness) - (c_to - c_from)).is_zero:
        raise ValueError("witness does not connect the two cocycles")
    idx = np.arange(n * m)
    a, g = idx // m, idx % m
    return ((a - witness.values[g]) % n) * m + g


def is_table_isomorphism(ext_from, ext_to, perm):
    """Check phi(x * y) = phi(x) * phi(y) entry for entry."""
    perm = np.asarray(perm, dtype=np.int64)
    return np.array_equal(perm[ext_from.table],
                          ext_to.table[perm[:, None], perm[None, :]])
