"""numpy's own Philox streams: the oracle of `fqcover.sampling`, and the
source of the tests' random data.  The package itself never loads
numpy.random."""

import numpy as np


def stream(seed, index, size, tag):
    """numpy's Generator on the counter [index, size, tag, 0], passed as a
    uint64 array: numpy reads a list holding a word >= 2^63 through
    float64."""
    counter = np.array([index, size, tag, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def sample_indices(rng, universe, size):
    """numpy's `choice(universe, size, replace=False)`, sorted."""
    return np.sort(rng.choice(universe, size=size, replace=False))
