"""The solvers' stored grids: one lookup and the grid-file codec.

Every read of a solved surface, partial or full information, one point or
a broadcast batch, is one ``gather`` on the brackets found here, and both
surface policies read their stored spread tables through one
``gather_spreads``.  So all lookups share one interpolation and one domain
contract: a time within 1e-12 of the grid's span is clamped onto it and a
time further out raises ``ValueError``, as do a belief outside [0, 1] and
an inventory outside [-N*, N*].  Scalars and arrays are both accepted; the
returned indices and weights take the input's shape.

Both solved surfaces persist as one grid file: ``# key = value`` header
lines, a column header row, then one row ``t,n,x,theta,spread_bid,spread_ask``
per node of a (time, inventory, x) grid, numbers at 17 significant digits.
``grid_to_csv`` writes it and ``grid_from_csv`` reads it back exactly.
"""

from __future__ import annotations

import io

import numpy as np

from .intensity import STUB_SPREAD

DEFAULT_PI_CELLS = 200  # belief cells of a partial-information grid unless m_pi is given
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
    left, right = grid.take(s), grid.take(s + 1)
    return s, (t - left) / (right - left)


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


def inventory_row(cap: int, n):
    """Row ``n + cap`` of inventory ``n`` in a table over the inventories
    -cap..cap, after checking that ``n`` lies among them."""
    n = np.asarray(n)
    inside = np.abs(n) <= cap
    if n.dtype.kind == "f":  # integer input, the engine's, needs no whole-number test
        inside &= n == np.round(n)
    if not inside.all():
        raise ValueError(f"inventory {n[~inside].flat[0]:g} outside [-{cap}, {cap}]")
    return (n + cap).astype(int)


def gather(table: np.ndarray, s, wt, rows, k, wp=None):
    """``table[time level, inventory row, k]`` interpolated in time (``s, wt``
    from ``time_bracket``); with ``wp`` (``k, wp`` from ``belief_bracket``)
    each time level is first interpolated in belief.  The indices are
    integers or integer arrays, and broadcast.

    The corners are read with ``take`` on the flat index (s R + row) C + k
    of a table with R rows and C columns."""
    _, width, depth = table.shape
    flat = table.reshape(-1)
    corner = (s * width + rows) * depth + k
    if wp is None:
        lower, upper = flat.take(corner), flat.take(corner + width * depth)
    else:
        stay = 1 - wp
        lower = stay * flat.take(corner) + wp * flat.take(corner + 1)
        corner = corner + width * depth
        upper = stay * flat.take(corner) + wp * flat.take(corner + 1)
    return (1 - wt) * lower + wt * upper


def gather_spreads(bid_table, ask_table, s, wt, rows, k, wp=None):
    """(bid, ask) interpolated from stub-padded spread tables at the same
    brackets as ``gather``; a blocked side (the bid at the top inventory
    row, the ask at row 0) returns the stub sentinel.  Scalars give a pair
    of floats, arrays a pair of arrays."""
    top = bid_table.shape[1] - 1
    # a blocked side's row holds the +inf stub, and a zero weight times inf
    # is NaN: gather from the nearest quoted row, then discard the value
    bid = np.where(rows < top, gather(bid_table, s, wt, np.minimum(rows, top - 1), k, wp), STUB_SPREAD)
    ask = np.where(rows > 0, gather(ask_table, s, wt, np.maximum(rows, 1), k, wp), STUB_SPREAD)
    if bid.ndim == 0:
        return float(bid), float(ask)
    return bid, ask


def check_count(name: str, value, lo: int = 1, hi: int | None = None) -> int:
    """``value``, after checking that it is an integer, not a bool, in
    [lo, hi) (by default >= 1: a grid size or path count)."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and lo <= value and (hi is None or value < hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


_TABLES = ("theta", "spread_bid", "spread_ask")
_BLOCK_ROWS = 1 << 16  # rows formatted per block, which bounds the writer's scratch memory
_BLOCK_CHARS = 1 << 20  # body characters parsed per block, which bounds the reader's scratch memory
_ROW = "%s%.17g,%.17g,%.17g\n".__mod__


def _digits(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values).tolist()]


def _rows(heads: list[str], tail: list[str], tables) -> str:
    """One block's rows.  A call of its own, so the block's prefixes and
    float lists are freed before the next block, and the last block's
    before the caller's join."""
    prefix = [head + rest for head in heads for rest in tail]
    values = [table.ravel().tolist() for table in tables]
    return "".join(map(_ROW, zip(prefix, *values)))


def grid_to_csv(headers: list[str], axis: str, axes, tables) -> str:
    """Grid file of ``tables`` (each shaped like the ``axes`` grid, time
    major), with ``axis`` naming the third axis in the column header row.

    Each axis is formatted once; the tables go through one C-level ``%``
    map per block of time levels.  ``%.17g`` and ``format(x, ".17g")``
    share one float formatter, so the bytes equal a per-value loop's.
    """
    times, levels, third = axes
    tail = [f"{n},{x}," for n in _digits(levels) for x in _digits(third)]
    flat = [np.asarray(table).reshape(len(times), len(tail)) for table in tables]
    step = max(1, _BLOCK_ROWS // len(tail))
    heads = [t + "," for t in _digits(times)]
    parts = [f"# {line}\n" for line in headers]
    parts.append(",".join(("t", "n", axis) + _TABLES) + "\n")
    for s in range(0, len(times), step):
        parts.append(_rows(heads[s : s + step], tail, [table[s : s + step] for table in flat]))
    return "".join(parts)


def grid_from_csv(text: str):
    """``(headers, axes, tables)`` of a grid file.

    ``headers`` holds the ``key = value`` header lines without their ``#``;
    the axes are the sorted distinct coordinates, so rows may come in any
    order.  Raises ``ValueError`` unless every node of the axes' grid
    appears exactly once in rows of six numbers.
    """
    headers, pos = [], 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line, pos = text[pos:end], end
        if line.startswith("#"):
            if "=" in line:
                headers.append(line[1:].strip())
        elif line.strip():
            break  # the column header row
    # numpy's C reader parses bytes with correct rounding.  The body is
    # encoded and parsed one block of lines at a time into one array, so the
    # reader never holds a whole second copy of the text
    data = np.empty((text.count("\n", pos) + 1, 6))
    rows = 0
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK_CHARS) + 1 or len(text)
        lines, pos = text[pos:end], end
        if lines.isspace():
            continue
        block = np.loadtxt(io.BytesIO(lines.encode()), delimiter=",", ndmin=2)
        if block.shape[1] != 6:
            raise ValueError(f"grid file rows have {block.shape[1]} columns, expected 6")
        data[rows : rows + len(block)] = block
        rows += len(block)
    if rows == 0:
        raise ValueError("grid file has no rows")
    data = data[:rows]
    axes, index = zip(*(np.unique(data[:, c], return_inverse=True) for c in range(3)))
    shape = tuple(len(a) for a in axes)
    size = int(np.prod(shape))
    if len(data) != size:
        raise ValueError(f"grid file has {len(data)} rows for a {'x'.join(map(str, shape))} grid")
    node = np.ravel_multi_index(index, shape)
    if np.bincount(node, minlength=size).max() != 1:
        raise ValueError("grid file repeats a node and misses another")
    tables = np.empty((3, size))
    tables[:, node] = data[:, 3:].T
    return headers, axes, tuple(table.reshape(shape) for table in tables)
