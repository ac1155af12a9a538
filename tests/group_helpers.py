"""Seeded random cochains, the table and cochain file writers, and the
isomorphism witnesses between cohomologous extensions, for the tests.

The writers are the inverses of centrex's parsers (``parse_group_table``,
``parse_cochain``); the tests write their input files through them.
"""

import numpy as np

from centrex.cochains import Cochain, delta


def random_cochain(group, modulus, degree, rng):
    vals = rng.integers(0, modulus, size=(group.order,) * degree,
                        dtype=np.int64)
    return Cochain(group, modulus, degree, vals)


def format_cochain(cochain):
    """Cochain file text: line 1 = "p n", then m values per line in
    row-major order."""
    lines = ["%d %d" % (cochain.degree, cochain.modulus)]
    flat = cochain.values.reshape(-1)
    m = cochain.group.order
    width = m if cochain.degree >= 1 else 1
    for start in range(0, flat.size, width):
        lines.append(" ".join(str(int(v)) for v in flat[start:start + width]))
    return "\n".join(lines) + "\n"


def format_group_table(group):
    """Group table file text: line 1 = m, then m rows of m indices."""
    lines = [str(group.order)]
    for row in group.table:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


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
