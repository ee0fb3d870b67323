"""Bracketing lookups on the solvers' stored grids.

Every interpolated read of a solved surface -- one point or a batch of
paths -- locates its time interval and belief cell here, so all lookups
share one domain contract: a time within 1e-12 of the grid's span is
clamped onto it and a time further out raises ``ValueError``, as does a
belief outside [0, 1].  Scalars and arrays are both accepted; the returned
indices and weights take the input's shape.
"""

from __future__ import annotations

import numpy as np

_TIME_SLACK = 1e-12


def time_bracket(grid: np.ndarray, t):
    """Interval ``s`` and weight ``w`` with t = (1 - w) grid[s] + w grid[s + 1]."""
    t = np.asarray(t, dtype=float)
    lo, hi = grid[0], grid[-1]
    inside = (t >= lo - _TIME_SLACK) & (t <= hi + _TIME_SLACK)
    if not inside.all():
        raise ValueError(f"t={t[~inside].flat[0]:g} outside [0, T]")
    # minimum/maximum rather than np.clip: scalar lookups are a hot path
    t = np.minimum(np.maximum(t, lo), hi)
    s = np.minimum(np.maximum(np.searchsorted(grid, t, side="right") - 1, 0), len(grid) - 2)
    return s, (t - grid[s]) / (grid[s + 1] - grid[s])


def check_belief(pi):
    """``pi`` as a float array, after checking that it lies in [0, 1]."""
    pi = np.asarray(pi, dtype=float)
    inside = (pi >= 0.0) & (pi <= 1.0)
    if not inside.all():
        raise ValueError(f"belief {pi[~inside].flat[0]:g} outside [0, 1]")
    return pi


def belief_bracket(cells: int, pi):
    """Cell ``j`` and weight ``w`` of ``pi`` on a uniform grid of ``cells``
    cells over [0, 1]."""
    scaled = check_belief(pi) * cells
    j = np.minimum(scaled.astype(int), cells - 1)
    return j, scaled - j
