"""Cochains on a finite group with Z/n coefficients and the bar differential.

A p-cochain is a map G^p -> Z/n stored as an integer array of shape
(m,)*p in row-major tuple order.  The differential is

    (delta c)(g_1, .., g_{p+1}) = sum_{i=0}^{p+1} (-1)^i c(d_i(g_1, .., g_{p+1}))

with the faces d_i dropping the first entry (i = 0), merging adjacent
entries g_i g_{i+1} (1 <= i <= p), or dropping the last entry (i = p+1).
For p = 2 this unwinds to c(h,k) - c(gh,k) + c(g,hk) - c(g,h), so
delta(c) = 0 is exactly the associativity condition for the twisted
product on Z/n x G.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

MAX_DELTA_OUTPUT = 2**22  # entries of the result cochain


def _check_modulus(n):
    n = int(n)
    if n < 1:
        raise ValueError("coefficient modulus must be >= 1")
    return n


class Cochain:
    """Map G^p -> Z/n with values reduced into [0, n)."""

    def __init__(self, group, modulus, degree, values):
        self.group = group
        self.modulus = _check_modulus(modulus)
        degree = int(degree)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        shape = (group.order,) * degree
        values = np.asarray(values, dtype=np.int64)
        if values.shape != shape:
            if values.size == np.prod(shape, dtype=np.int64):
                values = values.reshape(shape)
            else:
                raise ValueError(
                    "expected %d values for a degree-%d cochain on a group "
                    "of order %d, got %d"
                    % (np.prod(shape, dtype=np.int64), degree, group.order,
                       values.size)
                )
        values = np.mod(values, self.modulus)
        values.setflags(write=False)
        self.values = values

    @classmethod
    def zeros(cls, group, modulus, degree):
        shape = (group.order,) * degree
        return cls(group, modulus, degree, np.zeros(shape, dtype=np.int64))

    def value(self, *elements):
        if len(elements) == 1 and isinstance(elements[0], (tuple, list)):
            elements = tuple(elements[0])
        if len(elements) != self.degree:
            raise ValueError("expected %d elements, got %d"
                             % (self.degree, len(elements)))
        return int(self.values[tuple(int(g) for g in elements)]
                   if self.degree else self.values)

    @property
    def is_zero(self):
        return not np.any(self.values)

    def _like(self, values):
        return Cochain(self.group, self.modulus, self.degree, values)

    def _compatible(self, other):
        if (self.group is not other.group and
                not np.array_equal(self.group.table, other.group.table)):
            raise ValueError("cochains live on different groups")
        if self.modulus != other.modulus or self.degree != other.degree:
            raise ValueError("cochains have mismatched modulus or degree")

    def __add__(self, other):
        self._compatible(other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        self._compatible(other)
        return self._like(self.values.astype(np.int64) - other.values)

    def __neg__(self):
        return self._like(-self.values.astype(np.int64))

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.modulus == other.modulus and self.degree == other.degree
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.modulus, self.degree, self.values.tobytes()))

    def __repr__(self):
        return "Cochain(degree=%d, modulus=%d, m=%d)" % (
            self.degree, self.modulus, self.group.order)


def face_map(group, p, i, elements):
    """Face d_i applied to a (p+1)-tuple, yielding a p-tuple.

    i = 0 drops the first entry, i = p+1 drops the last, and
    1 <= i <= p multiplies the adjacent pair at position i.
    """
    elements = tuple(int(g) for g in elements)
    if len(elements) != p + 1:
        raise ValueError("expected a tuple of length %d, got %d"
                         % (p + 1, len(elements)))
    if not 0 <= i <= p + 1:
        raise IndexError("face index %d out of range 0..%d" % (i, p + 1))
    m = group.order
    for g in elements:
        if not 0 <= g < m:
            raise ValueError("element index %d out of range" % g)
    if i == 0:
        return elements[1:]
    if i == p + 1:
        return elements[:-1]
    return (elements[:i - 1]
            + (group.mul(elements[i - 1], elements[i]),)
            + elements[i + 1:])


def _face_grids(table, grids, i):
    """Pull the index grids of G^{p+1} back through the face d_i.

    The array form of ``face_map``: ``delta`` indexes a cochain with the
    result and ``cohomology.delta_matrix`` flattens it into columns.
    """
    q = len(grids)
    if i == 0:
        return tuple(grids[1:])
    if i == q:
        return tuple(grids[:-1])
    merged = table[grids[i - 1], grids[i]]
    return tuple(grids[:i - 1]) + (merged,) + tuple(grids[i + 1:])


def delta(cochain):
    """Bar differential: degree p -> degree p+1, alternating sum over faces."""
    group, n, p = cochain.group, cochain.modulus, cochain.degree
    m = group.order
    if m ** (p + 1) > MAX_DELTA_OUTPUT:
        raise CapacityError(
            "delta output has %d entries (limit %d)"
            % (m ** (p + 1), MAX_DELTA_OUTPUT))
    shape = (m,) * (p + 1)
    out = np.zeros(shape, dtype=np.int64)
    if p == 0:
        # both faces of a 1-tuple land on the empty tuple: the terms cancel
        return Cochain(group, n, 1, out)
    grids = np.indices(shape)
    for i in range(p + 2):
        term = cochain.values[_face_grids(group.table, grids, i)]
        out += term if i % 2 == 0 else -term
    return Cochain(group, n, p + 1, np.mod(out, n))


def delta_squared(cochain):
    """delta(delta(c)); identically zero by the simplicial identities."""
    return delta(delta(cochain))


def is_cocycle(cochain):
    if cochain.degree != 2:
        raise ValueError("cocycle condition applies to degree-2 cochains")
    return delta(cochain).is_zero


def violating_triple(cochain):
    """First (g, h, k) where the cocycle condition fails, or None."""
    residual = delta(cochain).values
    bad = np.argwhere(residual != 0)
    if bad.size == 0:
        return None
    return tuple(int(x) for x in bad[0])


def random_cochain(group, modulus, degree, rng):
    vals = rng.integers(0, modulus, size=(group.order,) * degree,
                        dtype=np.int64)
    return Cochain(group, modulus, degree, vals)


# ---------------------------------------------------------------------------
# cochain file format: line 1 = "p n", then m^p values in row-major order

def parse_cochain(text, group):
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("cochain file must start with 'p n'")
    try:
        p, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError("cochain header must be two integers 'p n', got %r %r"
                         % (tokens[0], tokens[1]))
    expected = group.order ** p
    values = tokens[2:]
    if len(values) != expected:
        raise ValueError("expected %d cochain values, found %d"
                         % (expected, len(values)))
    try:
        flat = np.array([int(t) for t in values], dtype=np.int64)
    except ValueError:
        raise ValueError("cochain values must be integers")
    return Cochain(group, n, p, flat)


def format_cochain(cochain):
    lines = ["%d %d" % (cochain.degree, cochain.modulus)]
    flat = cochain.values.reshape(-1)
    m = cochain.group.order
    width = m if cochain.degree >= 1 else 1
    for start in range(0, flat.size, width):
        lines.append(" ".join(str(int(v)) for v in flat[start:start + width]))
    return "\n".join(lines) + "\n"


def load_cochain(path, group):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cochain(fh.read(), group)
