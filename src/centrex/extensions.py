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

The fingerprint of the extension follows from c and the base table
without building the (nm)^2 table (the commutator calculus of central
extensions, Brown, *Cohomology of Groups*, ch. IV):

* Inverse: (a, g)^-1 = (-a - c(g, g^-1) - c(e, e), g^-1).
* Orders: (a, g)^j = (j a + sum_{i=1}^{j-1} c(g^i, g), g^j).  With
  k = ord g and sigma(g) = sum_{i=1}^{k-1} c(g^i, g), (a, g)^k is the
  kernel element (k a + sigma(g), e), so through the isomorphism above
  the order of (a, g) is k n / gcd(n, k a + sigma(g) + c(e, e)).
* Abelian: exactly when G is abelian and c is symmetric.
* Centre: (a, g) is central exactly when g is in Z(G) and
  c(g, .) = c(., g), whatever a is; so the centre has order
  n #{g in Z(G) : c(g, .) = c(., g)}.
* Derived subgroup: the kernel is central, so the commutator
  [(a, g), (b, h)] = (a, g)(b, h)(a, g)^-1(b, h)^-1 does not depend on a
  or b.  The derived subgroup is the closure, under the product above,
  of the commutators at a = b = 0.
"""

from __future__ import annotations

import numpy as np

from .cochains import violating_triple
from .errors import CocycleError
from .groups import GroupFingerprint, _closure, _element_orders


def _require_cocycle(cocycle):
    if cocycle.degree != 2:
        raise ValueError("extension requires a degree-2 cochain")
    bad = violating_triple(cocycle)
    if bad is not None:
        raise CocycleError(bad)


class ExtensionGroup:
    """The extension of ``base`` by Z/n twisted by ``cocycle``."""

    def __init__(self, cocycle):
        _require_cocycle(cocycle)
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


def extension_fingerprints(group, n, values):
    """One GroupFingerprint per cocycle in the stack ``values``, shape
    (R, m, m), of the extension of ``group`` by Z/n, from the formulas of
    the module docstring.  The cochains must satisfy delta(c) = 0; that
    is not checked here."""
    table, inv, m = group.table, group.inverse, group.order
    c = np.asarray(values, dtype=np.int64).reshape(-1, m, m) % n
    g = np.arange(m)
    ce = c[:, :1, 0]                                   # c(e, e), (R, 1)
    # element orders: k = ord g and shift = sigma(g) + c(e, e)
    k = _element_orders(table, 0)
    shift, power = ce.copy(), g
    for j in range(1, int(k.max())):
        shift = shift + np.where(j < k, c[:, power, g], 0)
        power = table[power, g]
    a = np.arange(n)
    kernel = (k[:, None] * a + shift[:, :, None]) % n        # (R, m, n)
    orders = np.sort((k[:, None] * (n // np.gcd(kernel, n))).reshape(
        len(c), -1), axis=1)
    # centre and commutativity
    same = (c == c.transpose(0, 2, 1)).all(axis=2)     # c(g, .) = c(., g)
    central = (table == table.T).all(axis=1) & same
    # commutators (gh)(g^-1 h^-1) at a = b = 0; inv_a is the first
    # coordinate of (0, g)^-1
    inv_a = -c[:, g, inv] - ce                         # (R, m)
    ginv_hinv = table[inv[:, None], inv]
    comm_a = (c + inv_a[:, :, None] + inv_a[:, None, :]
              + c[:, inv[:, None], inv] + c[:, table, ginv_hinv]) % n
    comm = comm_a * m + table[table, ginv_hinv]
    fps = []
    for r in range(len(c)):
        def product(x, y, cr=c[r]):
            (p, gx), (q, hy) = np.divmod(x, m), np.divmod(y, m)
            return (p + q + cr[gx, hy]) % n * m + table[gx, hy]
        derived = np.zeros(n * m, dtype=bool)
        derived[comm[r]] = True
        fps.append(GroupFingerprint(
            order=n * m,
            element_orders=tuple(orders[r].tolist()),
            is_abelian=bool(central[r].all()),
            center_order=n * int(np.count_nonzero(central[r])),
            derived_order=int(np.count_nonzero(_closure(product, derived))),
        ))
    return fps


def extension_fingerprint(cocycle):
    """Fingerprint of the extension of a degree-2 cocycle.

    Raises CocycleError (with the violating triple) unless delta(c) = 0.
    """
    _require_cocycle(cocycle)
    return extension_fingerprints(cocycle.group, cocycle.modulus,
                                  cocycle.values)[0]

