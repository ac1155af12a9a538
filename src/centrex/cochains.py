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

from math import prod

import numpy as np

from .errors import CapacityError

MAX_DELTA_OUTPUT = 2**22  # entries of the result cochain


# a degree-p cochain is an array with p axes; NumPy allows at most 64
MAX_DEGREE = 64


def _check_degree(p):
    p = int(p)
    if not 0 <= p <= MAX_DEGREE:
        raise ValueError("cochain degree must be in 0..%d, got %d"
                         % (MAX_DEGREE, p))
    return p


def _check_modulus(n):
    n = int(n)
    if not 1 <= n <= np.iinfo(np.int64).max:
        raise ValueError("coefficient modulus must be in 1..2^63-1")
    return n


class Cochain:
    """Map G^p -> Z/n with values reduced into [0, n)."""

    def __init__(self, group, modulus, degree, values):
        self.group = group
        self.modulus = _check_modulus(modulus)
        self.degree = degree = _check_degree(degree)
        shape = (group.order,) * degree
        values = np.asarray(values, dtype=np.int64)
        if values.shape != shape:
            expected = group.order ** degree
            if values.size != expected:
                raise ValueError(
                    "expected %d values for a degree-%d cochain on a group "
                    "of order %d, got %d"
                    % (expected, degree, group.order, values.size))
            values = values.reshape(shape)
        values = np.mod(values, self.modulus)
        values.setflags(write=False)
        self.values = values

    @classmethod
    def zeros(cls, group, modulus, degree):
        shape = (group.order,) * _check_degree(degree)
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


def _sum_dtype(p, n):
    """int16 or int64 while it holds the alternating sum of p + 2 values
    in [0, n), bounded by (p + 2)(n - 1); Python integers beyond."""
    bound = (p + 2) * (n - 1)
    for dtype in (np.int16, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _alternating_sum(table, p, values):
    """The unreduced sum_i (-1)^i c o d_i in the dtype of ``values``
    (leading stack axes, then (m,)*p): the array form of ``face_map``.
    Faces 0 and p+1 are broadcasts along a new first or last group axis;
    merge face i takes c through the table along group axis i - 1."""
    m = table.shape[0]
    lead = values.ndim - p
    out = np.empty(values.shape[:lead] + (m,) * (p + 1), dtype=values.dtype)
    np.copyto(out, np.expand_dims(values, lead))
    for i in range(1, p + 1):
        term = np.take(values, table, axis=lead + i - 1)
        if i % 2:
            out -= term
        else:
            out += term
    if p % 2:
        out += values[..., None]
    else:
        out -= values[..., None]
    return out


def delta_stack(group, n, p, values):
    """Bar differential on degree-p cochain values with leading stack axes.

    ``values`` has shape (...,) + (m,)*p with entries in [0, n), and the
    result (...,) + (m,)*(p+1), reduced into [0, n), in the type of
    ``_sum_dtype`` (int64 for Python integers); each stack entry is
    differentiated on its own.
    """
    m = group.order
    values = np.asarray(values)
    lead = values.shape[:values.ndim - p]
    size = m ** (p + 1) * prod(lead)
    if size > MAX_DELTA_OUTPUT:
        raise CapacityError("delta output has %d entries (limit %d)"
                            % (size, MAX_DELTA_OUTPUT))
    dtype = _sum_dtype(p, n)
    out = _alternating_sum(group.table, p, values.astype(dtype, copy=False))
    if dtype is object:
        return np.mod(out, n).astype(np.int64)
    return np.mod(out, n, out=out)


def delta(cochain):
    """Bar differential: degree p -> degree p+1, alternating sum over faces."""
    return Cochain(cochain.group, cochain.modulus, cochain.degree + 1,
                   delta_stack(cochain.group, cochain.modulus,
                               cochain.degree, cochain.values))


def violating_triple(cochain):
    """First (g, h, k) where the cocycle condition fails, or None."""
    residual = delta(cochain).values
    bad = np.argwhere(residual != 0)
    if bad.size == 0:
        return None
    return tuple(int(x) for x in bad[0])


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
    p = _check_degree(p)
    expected = group.order ** p
    values = tokens[2:]
    if len(values) != expected:
        raise ValueError("expected %d cochain values, found %d"
                         % (expected, len(values)))
    try:
        flat = np.array([int(t) for t in values], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError("cochain values must be 64-bit integers")
    return Cochain(group, n, p, flat)


def load_cochain(path, group):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cochain(fh.read(), group)
