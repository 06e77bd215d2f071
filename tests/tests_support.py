"""Planted-truth dataset builders shared by the genomics and acceptance
tests, and per-state views of retained draws."""

import numpy as np

from factorint import standardize_rows
from factorint.model import McmcState


def states(draws):
    """One read-only ``McmcState`` view per retained state of ``draws``."""
    return [McmcState(**{name: arr[k] for name, arr in draws.values.items()})
            for k in range(len(draws))]


def seed_structured(seed: int, violators: bool = True):
    """Two seed blocks with planted violations in the first block.

    Returns (data, g1, g2, planted) where ``planted`` maps each violating
    feature index to its expected removal reason.
    """
    rng = np.random.default_rng(seed)
    n = 80
    g1 = np.arange(0, 8)
    g2 = np.arange(8, 14)
    m = 14
    scores = rng.normal(size=(2, n))
    loadings = np.zeros((m, 2))
    loadings[g1, 0] = rng.uniform(2.0, 3.0, g1.size)
    loadings[g2, 1] = rng.uniform(2.0, 3.0, g2.size)
    planted = {}
    if violators:
        loadings[1, 0] = -2.5                      # sign flipped within G1
        planted[1] = "sign_mismatch"
        loadings[3, :] = 0.0                       # unrelated to either factor
        planted[3] = "low_own_inclusion"
        loadings[5, 1] = 2.5                       # loads on the other factor too
        planted[5] = "cross_loading"
    raw = loadings @ scores + 0.5 * rng.normal(size=(m, n))
    return standardize_rows(raw), g1, g2, planted


def candidate_structured(seed: int):
    """Seed blocks plus planted two-factor genes among single-factor and null
    distractors. Returns (data, g1, g2, both, single, null)."""
    rng = np.random.default_rng(seed)
    n = 80
    g1 = np.arange(0, 5)
    g2 = np.arange(5, 10)
    both = np.arange(10, 30)
    single = np.arange(30, 45)
    null = np.arange(45, 60)
    m = 60
    scores = rng.normal(size=(2, n))
    loadings = np.zeros((m, 2))
    loadings[g1, 0] = rng.uniform(2.0, 3.0, g1.size)
    loadings[g2, 1] = rng.uniform(2.0, 3.0, g2.size)
    signs = rng.choice([-1.0, 1.0], size=(both.size, 2))
    loadings[both] = signs * rng.uniform(1.2, 2.0, size=(both.size, 2))
    which = rng.integers(0, 2, single.size)
    loadings[single, which] = (rng.choice([-1.0, 1.0], single.size)
                               * rng.uniform(1.2, 2.0, single.size))
    raw = loadings @ scores + 0.6 * rng.normal(size=(m, n))
    return standardize_rows(raw), g1, g2, both, single, null
