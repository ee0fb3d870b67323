"""Counter-based splittable random streams, one pair per simulated path.

Philox is a counter-based generator: a (seed, stream id) key selects a
statistically independent stream without any jump-ahead state, so path i
always sees the same numbers no matter how many workers run or in which
order paths execute.  Each path gets separate substreams for event
randomness (candidate gaps, acceptance, side), price increments, and the
hidden regime path, so optional features never shift another substream's
draw sequence.
"""

from __future__ import annotations

import numpy as np

EVENTS = 0
PRICES = 1
REGIME = 2


def stream(seed: int, path_index: int, substream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(path_index * 4 + substream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class PathStreams:
    """The three substreams backing one simulated path."""

    def __init__(self, seed: int, path_index: int):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self.events = stream(seed, path_index, EVENTS)
        self.prices = stream(seed, path_index, PRICES)
        self.regime = stream(seed, path_index, REGIME)
