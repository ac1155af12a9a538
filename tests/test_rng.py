import itertools

import numpy as np
import pytest

from centrex.rng import generator, stream_draws

SEEDS = [0, 7, 2**64 - 1]
STREAMS = [0, 31, 2**20 + 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_draws_match_a_generator_per_stream(seed):
    # one re-keyed Philox draws each stream's bits, in any order of streams
    for order in itertools.permutations(STREAMS):
        normals = stream_draws(seed, order, "standard_normal", (3, 2, 2))
        uniforms = stream_draws(seed, np.array(order), "uniform",
                                -1.5, 1.5, 2)
        for k, stream in enumerate(order):
            assert np.array_equal(
                normals[k], generator(seed, stream).standard_normal((3, 2, 2)))
            assert np.array_equal(
                uniforms[k], generator(seed, stream).uniform(-1.5, 1.5, 2))
    # a repeated stream starts again at counter 0
    twice = stream_draws(seed, [31, 31], "standard_normal", 5)
    assert np.array_equal(twice[0], twice[1])
