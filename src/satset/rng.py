"""Deterministic randomness for the whole package.

Every random draw flows through numpy's PCG64 bit generator seeded with a
SeedSequence, so any integer seed reproduces bit-identically across
platforms.  Per-trial streams come from ``np.random.default_rng((seed,
index))``, the same construction on the pair, and are therefore
independent of execution order.
"""

from __future__ import annotations

import numpy as np


def generator_from_seed(seed: int) -> np.random.Generator:
    """PCG64 stream for a single seeded run: ``np.random.default_rng(seed)``."""
    return np.random.default_rng(seed)
