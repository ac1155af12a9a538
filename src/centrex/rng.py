"""Deterministic random streams.

All randomness flows from a user seed through the counter-based Philox
bit generator, keyed by (seed, stream).  The same (seed, stream) pair
yields the same draws on every platform and under any execution order,
which is what makes the verification reports byte-reproducible.  The
key fixes the whole stream, so one re-keyed Philox draws many streams.
"""

from __future__ import annotations

import numpy as np


def _key(seed, stream):
    return np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)


def generator(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def stream_draws(seed, streams, method, *args):
    """np.stack([getattr(generator(seed, s), method)(*args) for s in
    streams]), from one Philox set to key (seed, s) and counter 0."""
    bits = np.random.Philox(key=_key(seed, 0))
    state, draw = bits.state, getattr(np.random.Generator(bits), method)
    out = []
    for stream in streams:
        state["state"]["key"] = _key(seed, stream)
        bits.state = state
        out.append(draw(*args))
    return np.stack(out)
