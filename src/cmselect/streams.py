"""Deterministic random-number substreams.

Every source of randomness in the package flows from a single master seed.
Independent substreams are derived from (seed, path) pairs, where the path is
a tuple of small integers identifying the consumer. The harness draws each
sample from (phase, mean pattern, replication, SAMPLE_DRAW) and each
replication's resampling counts, shared by all its patterns, from (phase,
replication, BOOTSTRAP). Derivation is by `numpy.random.SeedSequence`
with the path as the spawn key, so streams are independent of each other and
of the order in which they are created. Work split across threads therefore
produces the same draws as a sequential run.
"""

from __future__ import annotations

import numpy as np

# Purpose slots for the per-replication substreams.
SAMPLE_DRAW = 0
BOOTSTRAP = 1
ASYMPTOTIC = 2


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the substream identified by (seed, path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
