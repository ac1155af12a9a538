"""Seeded benchmark inputs and the expected answers they are checked against.

Everything here is independent of ``centrex``: the group tables are built
from their textbook presentations, the expected H^2(G; Z/n) comes from the
universal coefficient theorem applied to the H_1 and H_2 recorded in
``expected.json``, and the cochains are drawn and checked with plain NumPy.
The program under test only ever sees the files written by ``write_*``.
"""

from __future__ import annotations

import json
import os
from math import gcd, prod

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# group tables (identity at index 0 before relabelling)

def cyclic(k):
    idx = np.arange(k)
    return (idx[:, None] + idx[None, :]) % k


def product(a, b):
    ma, mb = a.shape[0], b.shape[0]
    ia, ib = np.divmod(np.arange(ma * mb), mb)
    return a[ia[:, None], ia[None, :]] * mb + b[ib[:, None], ib[None, :]]


def dihedral(k):
    """Symmetries of the k-gon: r^a s^e at index a + k*e."""
    a, e = np.arange(2 * k) % k, np.arange(2 * k) // k
    rot = (a[:, None] + np.where(e[:, None] == 0, 1, -1) * a[None, :]) % k
    return rot + k * (e[:, None] ^ e[None, :])


def quaternion8():
    """Units +-1, +-i, +-j, +-k at index 2*basis + sign_bit."""
    # basis product table of (1, i, j, k): (sign, basis)
    unit = [[(1, 0), (1, 1), (1, 2), (1, 3)],
            [(1, 1), (-1, 0), (1, 3), (-1, 2)],
            [(1, 2), (-1, 3), (-1, 0), (1, 1)],
            [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
    table = np.empty((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            sign, basis = unit[x // 2][y // 2]
            negative = (sign < 0) ^ (x % 2) ^ (y % 2)
            table[x, y] = 2 * basis + negative
    return table


def symmetric3():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                     for p in perms])


GROUPS = {
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z2xZ2": lambda: product(cyclic(2), cyclic(2)),
    "S3": symmetric3,
    "D4": lambda: dihedral(4),
    "Q8": quaternion8,
    "D6": lambda: dihedral(6),
    "D8": lambda: dihedral(8),
    "Z2^3": lambda: product(cyclic(2), product(cyclic(2), cyclic(2))),
    "Z4xZ4": lambda: product(cyclic(4), cyclic(4)),
}


def relabel(table, rng):
    """Table of the same group under a random relabelling that fixes 0."""
    m = table.shape[0]
    perm = np.concatenate([[0], 1 + rng.permutation(m - 1)])
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


# ---------------------------------------------------------------------------
# expected H^2(G; Z/n) from the universal coefficient theorem

def primary(factors):
    """Sorted prime-power decomposition of a list of cyclic orders."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def uct(h1, h2, n):
    """H^2(G; Z/n) = Hom(H_2, Z/n) + Ext(H_1, Z/n) for finite G."""
    return primary([gcd(a, n) for a in h2] + [gcd(a, n) for a in h1])


def load_expected():
    """Expected rows keyed by (group, n), checked against UCT on load."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    rows = {}
    for name, entry in data["groups"].items():
        for n_text, row in entry["h2"].items():
            n = int(n_text)
            factors = uct(entry["H1"], entry["H2"], n)
            if (primary(row["invariant_factors"]) != factors
                    or row["size"] != prod(factors)):
                raise ValueError("expected.json row %s n=%d disagrees with "
                                 "the universal coefficient theorem"
                                 % (name, n))
            m = entry["order"]
            z1 = prod(gcd(a, n) for a in entry["H1"])  # |Hom(H_1, Z/n)|
            b2 = n**m // z1
            rows[name, n] = {"order": m, "h2_size": row["size"],
                             "factors": factors, "b2_size": b2,
                             "z2_size": b2 * row["size"]}
    return rows


# ---------------------------------------------------------------------------
# cochains and the cocycle condition, computed independently

def coboundary_residual(table, c, n):
    """(delta c)(g, h, k) = c(h,k) - c(gh,k) + c(g,hk) - c(g,h) mod n.

    ``c`` may carry leading batch axes: shape (..., m, m).
    """
    m = table.shape[0]
    g, h, k = np.ogrid[:m, :m, :m]
    res = (c[..., h, k] - c[..., table[g, h], k]
           + c[..., g, table[h, k]] - c[..., g, h])
    return np.mod(res, n)


def all_cocycles(table, cochains, n, chunk=32):
    """Whether every cochain of a (k, m, m) stack is a cocycle.

    Chunked so that the check's own memory stays far below the program's
    (peak RSS is one of the benchmark's metrics).
    """
    return not any(coboundary_residual(table, cochains[i:i + chunk], n).any()
                   for i in range(0, len(cochains), chunk))


def is_associative(table, chunk=16):
    """(xy)z == x(yz) for every triple, chunked over x like the above."""
    m = table.shape[0]
    for x0 in range(0, m, chunk):
        x = np.arange(x0, min(x0 + chunk, m))[:, None, None]
        y, z = np.arange(m)[None, :, None], np.arange(m)[None, None, :]
        if not np.array_equal(table[table[x, y], z], table[x, table[y, z]]):
            return False
    return True


def coboundary(table, n, rng):
    """delta f for a random f: G -> Z/n; always a cocycle."""
    f = rng.integers(0, n, size=table.shape[0])
    return np.mod(f[:, None] + f[None, :] - f[table], n)


def non_cocycle(table, n, rng):
    """Uniform random cochain, redrawn if it happens to be a cocycle."""
    m = table.shape[0]
    while True:
        c = rng.integers(0, n, size=(m, m))
        if coboundary_residual(table, c, n).any():
            return c


# ---------------------------------------------------------------------------
# file formats read by the program (see the centrex README)

def write_group(path, table):
    lines = [str(table.shape[0])]
    lines += [" ".join(str(int(x)) for x in row) for row in table]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cochain(path, c, n):
    lines = ["2 %d" % n] + [" ".join(str(int(x)) for x in row) for row in c]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
