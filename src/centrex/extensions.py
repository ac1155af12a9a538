"""Central extension groups built from degree-2 cocycles.

Given a cocycle c on G with values in Z/n, the set Z/n x G with product
(a, g) * (b, h) = (a + b + c(g, h), g h) is a group; the pair (a, g) is
stored at index a*m + g.  The cocycle condition delta(c) = 0 is checked
once, where the cochain enters, and every group axiom of the table
follows from it or holds for any cochain:

* Latin square: b -> a + b + c(g, h) and h -> g h are bijections.
* Associativity: (xy)z = x(yz) is exactly delta(c) = 0 (see ``cochains``).
* Identity (-c(e, e), e): delta(c)(e, e, h) = 0 gives c(e, h) = c(e, e)
  and delta(c)(g, e, e) = 0 gives c(g, e) = c(e, e).  It need not be
  index 0, because unnormalized cocycles are allowed.
* Central kernel: (a, e)(b, h) and (b, h)(a, e) both equal
  (a + b + c(e, e), h).
* Cyclic kernel of order n: a -> (a - c(e, e), e) is an isomorphism
  from Z/n.
* Projection to G: each entry is k*m plus the base product, below m.
"""

from __future__ import annotations

import numpy as np

from .cochains import delta, violating_triple
from .errors import CocycleError
from .groups import table_fingerprint


class ExtensionGroup:
    """The extension of ``base`` by Z/n twisted by ``cocycle``."""

    def __init__(self, cocycle):
        if cocycle.degree != 2:
            raise ValueError("extension requires a degree-2 cochain")
        bad = violating_triple(cocycle)
        if bad is not None:
            raise CocycleError(bad)
        self._assemble(cocycle)

    @classmethod
    def _trusted(cls, cocycle):
        """Build from a degree-2 cochain already known to satisfy
        delta(c) = 0, without checking it again."""
        ext = object.__new__(cls)
        ext._assemble(cocycle)
        return ext

    def _assemble(self, cocycle):
        base = cocycle.group
        n, m = cocycle.modulus, base.order
        c = cocycle.values
        idx = np.arange(n * m)
        a, g = idx // m, idx % m
        table = (((a[:, None] + a[None, :] + c[g[:, None], g[None, :]]) % n)
                 * m + base.table[g[:, None], g[None, :]])
        table.setflags(write=False)
        self.base = base
        self.modulus = n
        self.cocycle = cocycle
        self.table = table
        self.order = n * m
        self.identity = (-int(c[0, 0]) % n) * m
        self.name = "ext(%s, n=%d)" % (base.name, n)

    def __repr__(self):
        return "ExtensionGroup(%s, order=%d)" % (self.name, self.order)


def build_extension(cocycle):
    """Construct the extension group of a degree-2 cochain.

    Raises CocycleError (with the violating triple) unless delta(c) = 0;
    the group axioms of the table follow from that (module docstring).
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
