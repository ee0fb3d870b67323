"""Counter-based random streams, keyed by (seed, path, substream).

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011) is a keyed bijection of a 256-bit counter: word ``i`` of a
stream is a pure function of the key and ``i``, so any word of any path can
be made without stepping through the ones before it.  Path ``p``'s
substream ``s`` under ``seed`` has the key ``(seed, 4 p + s)``, and
``words`` reproduces ``np.random.Philox(key=...).random_raw()``
(whose first 4-word block uses counter 1) for a whole block of paths at
once.  Each path gets separate substreams for event randomness (candidate
gaps, acceptance, side), price increments, and the hidden regime path, so
optional features never shift another substream's draw sequence.

``Substream`` holds one substream of a block of paths: a draw counter per
path and a small window of words per path, refilled on demand.  A draw is
the word at the path's counter, so what a path draws depends neither on the
window size nor on which paths share its block.  Uniforms are
``(x >> 11) 2**-53``, as ``Generator.random()`` makes them; exponentials
are ``-log1p(-u)`` and normals Box--Muller pairs (cosine branch).

``stream`` gives a numpy Generator over the same key, the reference that
the tests check ``Substream`` against: its ``random()`` draws equal
``Substream.uniform``'s, but its exponential and normal draws use numpy's
ziggurat instead.  ``PathStreams``, one path's three such Generators, is
used by no simulation code; only the benchmark's tracer test still calls it.
"""

from __future__ import annotations

import math

import numpy as np

EVENTS = 0
PRICES = 1
REGIME = 2
# the stream scheme's name, recorded in every simulate manifest
SCHEME = "philox4x64-10-keyed"

_MASK = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key schedule increments
_ROUNDS = 10
_WINDOW = 64  # words per path that a Substream keeps


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product of the constant
    ``m`` and each word of ``x``, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    p01, p10 = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = x_hi * m_hi + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox(seed: int, key1, counter) -> np.ndarray:
    """Philox4x64-10 blocks, shape ``counter.shape + (4,)``, of the keys
    ``(seed, key1)`` at the counters ``(counter, 0, 0, 0)``; ``key1`` and
    ``counter`` are uint64 arrays that broadcast."""
    key1 = np.asarray(key1, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    shape = np.broadcast(key1, counter).shape
    c0 = np.broadcast_to(counter, shape).copy()
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for r in range(_ROUNDS):
        k0 = np.uint64((seed + r * _W0) & _MASK)
        k1 = key1 + np.uint64((r * _W1) & _MASK)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def words(seed: int, key1: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """Words ``start, ..., start + count - 1`` of each stream ``(seed, key1)``,
    shape ``(len(key1), count)``; ``start`` holds one word index per stream."""
    start = np.asarray(start, dtype=np.int64)
    first = start // 4
    blocks = (count + 3) // 4 + 1  # covers any offset of start within its block
    counter = (first[:, None] + 1 + np.arange(blocks)).astype(np.uint64)
    flat = _philox(seed, np.asarray(key1, dtype=np.uint64)[:, None], counter)
    flat = flat.reshape(len(start), 4 * blocks)
    return np.take_along_axis(flat, (start - 4 * first)[:, None] + np.arange(count), axis=1)


class Substream:
    """One substream of a block of paths, drawn row by row.

    Row ``r`` is path ``paths[r]``.  ``used[r]`` counts the words the row
    has drawn; a row's window holds its words ``base[r]`` onwards and is
    refilled when a draw runs past it.  Every draw method takes the rows
    that draw, each at most once, and returns their values in row order.
    """

    def __init__(self, seed: int, paths, substream: int):
        self.seed = int(seed)
        self.key1 = np.asarray(paths, dtype=np.uint64) * np.uint64(4) + np.uint64(substream)
        self.window = _WINDOW
        self.used = np.zeros(len(self.key1), dtype=np.int64)
        self.base = np.zeros(len(self.key1), dtype=np.int64)
        self.buffer = None  # filled on the first draw, so an unread substream costs nothing

    def __len__(self) -> int:
        return len(self.key1)

    def raw(self, rows: np.ndarray, count: int = 1) -> np.ndarray:
        """The rows' next ``count`` words, shape ``(len(rows), count)``."""
        start = self.used[rows]
        self.used[rows] = start + count
        if count + 3 > self.window:  # longer than a window: make the words directly
            return words(self.seed, self.key1[rows], start, count)
        if self.buffer is None:
            self.buffer = words(self.seed, self.key1, self.base, self.window)
        past = start + count > self.base[rows] + self.window
        if past.any():
            stale = rows[past]
            self.base[stale] = start[past] - start[past] % 4
            self.buffer[stale] = words(self.seed, self.key1[stale], self.base[stale], self.window)
        return self.buffer[rows[:, None], (start - self.base[rows])[:, None] + np.arange(count)]

    def _doubles(self, rows: np.ndarray, count: int) -> np.ndarray:
        """``count`` doubles in [0, 1) per row, as ``Generator.random()``
        forms them from the same words."""
        return (self.raw(rows, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, rows: np.ndarray) -> np.ndarray:
        return self._doubles(rows, 1)[:, 0]

    def exponential(self, rows: np.ndarray) -> np.ndarray:
        """Standard exponentials, one per row, by inversion."""
        return -np.log1p(-self.uniform(rows))

    def normal(self, rows: np.ndarray, count: int = 1) -> np.ndarray:
        """``count`` standard normals per row, shape (len(rows), count):
        Box--Muller's cosine branch, with 1 - u in (0, 1] under the logarithm."""
        u = self._doubles(rows, 2 * count)
        return np.sqrt(-2.0 * np.log1p(-u[:, 0::2])) * np.cos(2.0 * math.pi * u[:, 1::2])


def stream(seed: int, path_index: int, substream: int) -> np.random.Generator:
    """A numpy Generator over the key of path ``path_index``'s ``substream``."""
    key = np.array([np.uint64(seed), np.uint64(path_index * 4 + substream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class PathStreams:
    """The three substreams of one simulated path as numpy Generators."""

    def __init__(self, seed: int, path_index: int):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self.events = stream(seed, path_index, EVENTS)
        self.prices = stream(seed, path_index, PRICES)
        self.regime = stream(seed, path_index, REGIME)
