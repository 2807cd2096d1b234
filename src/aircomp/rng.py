"""Deterministic random-stream construction shared by the simulation code.

Every stochastic routine in this package draws from a named 64-bit
generator (PCG64) seeded explicitly, so that a fixed seed reproduces the
same stream on every platform.  Derived streams are split off with
``numpy.random.SeedSequence`` rather than by arithmetic on seed integers.
"""

from __future__ import annotations

import numpy as np

def make_rng(seed) -> np.random.Generator:
    """Return a PCG64-backed Generator for an int, SeedSequence, or Generator.

    ``None`` draws fresh OS entropy; pass an explicit seed for
    reproducibility.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """Split a seed into ``n`` independent child SeedSequences, deterministically."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)
