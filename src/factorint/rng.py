"""Deterministic random-number streams.

Every stochastic component draws from its own named counter-based (Philox)
stream keyed by (run seed, chain index, purpose), so adding or reordering
unrelated updates cannot silently shift the draws consumed by another
component.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError
from .prior import check_integer


def stream(seed: int, chain: int, purpose: str) -> np.random.Generator:
    """Return the generator for one (seed, chain, purpose) triple. The seed
    and chain are integers >= 0 (``prior.check_integer``), refused rather
    than truncated; ConfigError otherwise."""
    key = (check_integer("seed", seed, ConfigError, 0),
           check_integer("chain", chain, ConfigError, 0), zlib.crc32(purpose.encode("ascii")))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


class RngStreams:
    """Lazy cache of named streams for a single chain; its seed and chain
    are checked as ``stream`` checks them, when it is built."""

    def __init__(self, seed: int, chain: int = 0):
        self.seed = check_integer("seed", seed, ConfigError, 0)
        self.chain = check_integer("chain", chain, ConfigError, 0)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, purpose: str) -> np.random.Generator:
        gen = self._streams.get(purpose)
        if gen is None:
            gen = stream(self.seed, self.chain, purpose)
            self._streams[purpose] = gen
        return gen
