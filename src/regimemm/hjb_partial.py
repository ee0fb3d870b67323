"""Partial-information solver for the two-regime market (scalar belief).

With symmetric, proportional exponential intensities and a risk-neutral
market maker, the belief reduces to the scalar probability pi of the
low-liquidity regime and the dynamic-programming equation becomes a
first-order PIDE in (t, n, pi) whose nonlocal term looks up theta at the
post-order belief pi / m_hat(pi).  It is solved by reversing time and
marching an explicit upwind Euler scheme on a uniform pi grid, with the
nonlocal term evaluated by linear interpolation and the time step controlled
by a CFL bound re-evaluated every step.  Each side's Hamiltonian
sup_delta lam(delta) (delta + d) on regime 1's curve comes from ``intensity``,
as in the full-information solver, with the belief-gradient adjustment in d.
The march holds only two levels; the surface keeps a uniform output time
grid, each output level being the linear time interpolation of the two
marching levels around it.

Upwinding is applied per advection term: the generator-transport coefficient
q_hat(pi) has a known sign per node, and the order-flow-volatility term
carries a nonnegative coefficient, so each term uses its own one-sided
difference and the explicit step is monotone under the CFL bound.

``belief_gradient_scale`` weights the two belief-gradient terms (transport
and the spread adjustment).  The default 1.0 matches the filter dynamics, so
the solved surface is the expected penalized P&L of its own feedback policy;
2.0 reproduces an alternative convention that doubles both terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, UnsupportedConfigError
from .grid import (
    DEFAULT_PI_CELLS, belief_bracket, check_count, gather, gather_spreads, grid_from_csv, grid_to_csv,
    inventory_row, time_bracket,
)
from .intensity import STUB_SPREAD, eval_intensity, optimal_spread, prepared
from .model import ModelSpec, format_config, parse_config, two_regime_reduction

CFL_SAFETY = 0.9  # fraction of the stable step the march takes
_PROBE_TIMES = 41  # convergence_report's uniform probe times over [0, T]


@dataclass(frozen=True)
class CflReport:
    max_coefficient: float
    min_dt: float
    max_dt: float
    n_steps: int


@dataclass(frozen=True)
class PartialInfoSurface:
    """theta(t, n, pi) and spread tables on the (time, inventory, belief) grid.

    Arrays are indexed [time level, inventory row, belief node]; inventory
    row r holds n = r - N*.  The time grid is the uniform output grid
    ``np.linspace(0, T, output_levels(m_pi))``, not the CFL march's levels,
    whose count ``cfl_report.n_steps`` records.  Blocked sides hold stub
    sentinels at every level.
    """

    spec: ModelSpec
    time_grid: np.ndarray
    pi_grid: np.ndarray
    theta: np.ndarray
    spread_bid: np.ndarray
    spread_ask: np.ndarray
    cfl_report: CflReport
    belief_gradient_scale: float = 1.0

    def _brackets(self, t, n, pi):
        """Domain-checked ``gather`` arguments of broadcast points (t, n, pi)."""
        s, wt = time_bracket(self.time_grid, t)
        j, wp = belief_bracket(len(self.pi_grid) - 1, pi)
        return s, wt, inventory_row(int(self.spec.inventory_cap_Nstar), n), j, wp

    def theta_at(self, t, n, pi):
        """theta at broadcast (t, n, pi); scalars give a float."""
        value = gather(self.theta, *self._brackets(t, n, pi))
        return float(value) if value.ndim == 0 else value


class Stepper:
    """Precomputed grid data plus the explicit-step evaluation.

    The constructor computes everything a step needs that does not depend
    on theta, each product grouped as the step's own expressions group it:
    the belief-gradient weights, the post-fill belief bracket as flat
    indices into a theta panel with its two weights, the CFL coefficient's
    two belief factors, and regime 1's curve prepared for the maximizer
    (``intensity.prepared``).  ``evaluate(theta)`` maps one time
    level to the feedback spreads, the marching right-hand side
    (d theta / d tau, backward time) and the CFL coefficient bounding the
    stable step, with one ``optimal_spread`` and one ``eval_intensity``
    call for both sides.  Exposed separately from ``solve`` so single-step
    properties (monotonicity under CFL) can be tested.
    """

    def __init__(self, spec: ModelSpec, m_pi: int, belief_gradient_scale: float = 1.0):
        red = two_regime_reduction(spec)
        if not red.q11 < 0.0:
            raise UnsupportedConfigError(
                "partial-information scheme needs a strictly negative q11 "
                "(inward transport at the pi = 1 boundary)"
            )
        if spec.unbounded_inventory:
            raise UnsupportedConfigError(
                "partial-information solver requires a finite inventory cap"
            )
        self.scale = float(belief_gradient_scale)
        if not self.scale >= 0.0:
            # a negative scale flips the upwind coefficients: the explicit
            # step is then not monotone (Barles-Souganidis)
            raise ValueError(f"belief_gradient_scale {self.scale:g} must be >= 0")
        self.spec = spec
        self.red = red
        self.lam = prepared(red.lam, spec.risk_aversion_gamma, spec.spread_bounds)
        self.levels = spec.inventory_levels().astype(float)
        m_pi = check_count("m_pi", m_pi)
        self.pi_grid = np.linspace(0.0, 1.0, m_pi + 1)
        self.d_pi = 1.0 / m_pi
        self.q_hat = red.q_hat(self.pi_grid)
        self.m_hat = red.m_hat(self.pi_grid)
        w = red.w(self.pi_grid)
        # bracket of the post-order belief pi/m_hat(pi), in [0, 1] since m >= 1
        self.i0, self.wt = belief_bracket(m_pi, self.pi_grid / self.m_hat)
        # flat panel indices of the bracket's lower and upper nodes, row by
        # row, and their interpolation weights
        lower = np.arange(len(self.levels))[:, None] * (m_pi + 1) + self.i0
        self.bracket = np.stack([lower, lower + 1])
        self.bracket_weights = np.stack([1.0 - self.wt, self.wt])[:, None, :]
        self.q_pos = np.maximum(self.q_hat, 0.0)
        self.q_neg = np.minimum(self.q_hat, 0.0)
        self.base = spec.running_reward(self.levels)[:, None]
        self.adj_weight = self.scale * (w / self.m_hat)
        self.cfl_transport = self.scale * np.abs(self.q_hat) / self.d_pi
        self.cfl_fill = self.scale * w / self.d_pi + self.m_hat

    def terminal_panel(self) -> np.ndarray:
        return np.repeat(
            (-self.spec.terminal_cost(self.levels))[:, None], len(self.pi_grid), axis=1
        )

    def one_sided(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(forward, backward) belief differences; boundary columns reuse the
        inward-available side (their outward coefficients are zero)."""
        fwd = np.empty_like(theta)
        bwd = np.empty_like(theta)
        inner = np.subtract(theta[:, 1:], theta[:, :-1], out=fwd[:, :-1])
        inner /= self.d_pi
        bwd[:, 1:] = inner
        fwd[:, -1] = bwd[:, -1]
        bwd[:, 0] = fwd[:, 0]
        return fwd, bwd

    def evaluate(self, theta: np.ndarray):
        """(spreads, rhs, CFL coefficient) at one level.

        ``spreads`` is (2, 2 N*, m_pi + 1): the bid quoted at rows :-1
        (n -> n + 1) and the ask quoted at rows 1: (n -> n - 1).  The
        blocked sides, the bid at n = N* and the ask at n = -N*, have no
        entry.
        """
        fwd, bwd = self.one_sided(theta)
        # the volatility-adjustment term carries a nonnegative coefficient:
        # a forward difference keeps the explicit step monotone
        adj = self.adj_weight * fwd
        # theta at the post-order belief, linear between its bracket's nodes
        ends = theta.take(self.bracket)
        ends *= self.bracket_weights
        theta_nl = np.add(ends[0], ends[1])
        # each side's Hamiltonian argument, theta after the fill less theta,
        # plus adj
        d = np.empty((2,) + adj[1:].shape)
        np.subtract(theta_nl[1:], theta[:-1], out=d[0])
        np.subtract(theta_nl[:-1], theta[1:], out=d[1])
        d[0] += adj[:-1]
        d[1] += adj[1:]
        spreads = optimal_spread(self.lam, self.spec.risk_aversion_gamma, d, self.spec.spread_bounds)
        lam = eval_intensity(self.lam, spreads)
        gain = self.m_hat * lam
        d += spreads
        gain *= d

        rate = np.zeros_like(theta)
        rate[:-1] = lam[0]
        rate[1:] += lam[1]
        term = np.zeros_like(theta)
        term[:-1] = gain[0]
        term[1:] += gain[1]

        rhs = self.q_pos * fwd
        rhs += self.q_neg * bwd
        rhs *= self.scale
        rhs += self.base
        rhs += term
        # the CFL coefficient, formed in the fill rates' array
        rate *= self.cfl_fill
        rate += self.cfl_transport
        return spreads, rhs, float(np.max(rate))


def output_levels(m_pi: int) -> int:
    """Stored time levels of a surface with ``m_pi`` belief cells.

    A lookup's time-interpolation error falls like 1/L^2 and the scheme's
    own error like 1/m_pi, so L grows like sqrt(m_pi).  On table1 this rule
    keeps 20 000 random lookups within 0.31 of the gap between the m_pi and
    2 m_pi solutions at every m_pi from 10 to 800, and stores no more
    levels than the CFL march takes (about 5.6 m_pi) from m_pi = 10 on.
    """
    return 1 + math.ceil(20.0 * math.sqrt(m_pi))


def solve(
    spec: ModelSpec,
    m_pi: int = DEFAULT_PI_CELLS,
    m_t: int | None = None,
    *,
    belief_gradient_scale: float = 1.0,
) -> PartialInfoSurface:
    """March theta backward from theta(T, n, pi) = -c n^2.

    ``m_pi`` is the number of belief cells (m_pi + 1 nodes).  With ``m_t``
    unset the time step is chosen each level from the CFL bound; an explicit
    ``m_t`` sets a uniform target step T/m_t, which is still shortened to
    ``CFL_SAFETY`` times the stable step wherever that is smaller.

    Only the two marching levels around the current time are held.  The
    surface stores ``output_levels(m_pi)`` uniform levels over [0, T], each
    the linear time interpolation of the marching levels around it, which
    is the value a lookup on every marching level would return there.
    """
    stepper = Stepper(spec, m_pi, belief_gradient_scale)
    T = spec.horizon_T
    if not T > 0.0:  # the output grid needs a march to fill it
        raise ValueError(f"horizon_T {T!r} must be > 0")
    theta = stepper.terminal_panel()
    target_dt = math.inf if m_t is None else T / check_count("m_t", m_t)

    out_t = np.linspace(0.0, T, output_levels(m_pi))
    out_theta = np.empty((len(out_t),) + theta.shape)
    out_bid = np.full_like(out_theta, STUB_SPREAD)
    out_ask = np.full_like(out_theta, STUB_SPREAD)
    # a blocked side (bid at n = N*, ask at n = -N*) keeps its stub at every
    # level: interpolating it would form 0 * inf = NaN
    quoted_bid, quoted_ask = out_bid[:, :-1], out_ask[:, 1:]
    nxt = len(out_t) - 1  # highest output level not yet written

    max_coeff = 0.0
    min_dt, max_dt, n_steps = math.inf, 0.0, 0
    t = T
    spreads, rhs, coeff = stepper.evaluate(theta)
    while t > 0.0:
        max_coeff = max(max_coeff, coeff)
        dt = min(CFL_SAFETY / coeff if coeff > 0.0 else math.inf, target_dt, t)
        if not dt > 0.0 or not math.isfinite(dt):
            raise NumericsError("partial-information scheme: time step underflow")
        min_dt, max_dt, n_steps = min(min_dt, dt), max(max_dt, dt), n_steps + 1
        theta_up, spreads_up = theta, spreads
        theta = theta + dt * rhs
        t_up, t = t, 0.0 if t - dt <= 1e-15 * T else t - dt
        spreads, rhs, coeff = stepper.evaluate(theta)
        # output times in [t, t_up) (T too, on the first step), with the
        # weight a lookup's ``time_bracket`` would give them
        while nxt >= 0 and out_t[nxt] >= t:
            w = (out_t[nxt] - t) / (t_up - t)
            out_theta[nxt] = (1 - w) * theta + w * theta_up
            quoted_bid[nxt], quoted_ask[nxt] = (1 - w) * spreads + w * spreads_up
            nxt -= 1

    report = CflReport(max_coefficient=max_coeff, min_dt=min_dt, max_dt=max_dt, n_steps=n_steps)
    return PartialInfoSurface(
        spec=spec,
        time_grid=out_t,
        pi_grid=stepper.pi_grid,
        theta=out_theta,
        spread_bid=out_bid,
        spread_ask=out_ask,
        cfl_report=report,
        belief_gradient_scale=stepper.scale,
    )


def policy(surface: PartialInfoSurface, t, n, pi):
    """Bilinear interpolation of the stored spread tables at (t, n, pi).

    The arguments broadcast against each other: scalars give a pair of
    floats, arrays (a batch of paths, a column of times) a pair of arrays.
    Blocked sides (|n| at the cap) return the stub sentinel.
    """
    return gather_spreads(surface.spread_bid, surface.spread_ask, *surface._brackets(t, n, pi))


@dataclass(frozen=True)
class ConvergenceReport:
    pi_cells: tuple[int, ...]
    sup_differences: tuple[float, ...]  # between successive ladder solutions
    ratios: tuple[float, ...]


def convergence_report(
    spec: ModelSpec, ladder: tuple[int, ...] = (50, 100, 200)
) -> ConvergenceReport:
    """Sup-norm differences between successive ladder solutions.

    Each rung doubles the belief resolution (time resolution follows the
    CFL bound); solutions are compared on the common belief nodes across
    all inventories at ``_PROBE_TIMES`` uniform probe times.
    """
    if len(ladder) < 2:
        raise ValueError("need at least two grids to compare")
    for c, f in zip(ladder, ladder[1:]):
        if f != 2 * c:
            raise ValueError("each ladder step must refine the belief grid by 2")
    surfaces = [solve(spec, m_pi=m) for m in ladder]
    probe_times = np.linspace(0.0, spec.horizon_T, _PROBE_TIMES)
    levels = spec.inventory_levels()[:, None, None]
    diffs = []
    for coarse, fine in zip(surfaces, surfaces[1:]):
        # every (inventory, coarse belief node, probe time) point at once
        points = (probe_times, levels, coarse.pi_grid[:, None])
        diffs.append(float(np.max(np.abs(coarse.theta_at(*points) - fine.theta_at(*points)))))
    ratios = tuple(
        diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
        for i in range(len(diffs) - 1)
    )
    return ConvergenceReport(tuple(ladder), tuple(diffs), ratios)


# -- persistence ----------------------------------------------------------------


def surface_to_csv(surface: PartialInfoSurface, extra_headers: dict | None = None) -> str:
    """Same grid-file layout as the full-information surface, with rows
    (t, n, pi, theta, spread_bid, spread_ask) and a cfl report header."""
    rep = surface.cfl_report
    headers = format_config(surface.spec).strip().splitlines() + [
        f"cfl_max_coeff = {rep.max_coefficient:.17g}",
        f"cfl_min_dt = {rep.min_dt:.17g}",
        f"cfl_max_dt = {rep.max_dt:.17g}",
        f"cfl_n_steps = {rep.n_steps}",
        f"belief_gradient_scale = {surface.belief_gradient_scale:.17g}",
    ]
    headers += [f"{key} = {val}" for key, val in (extra_headers or {}).items()]
    axes = (surface.time_grid, surface.spec.inventory_levels(), surface.pi_grid)
    return grid_to_csv(
        headers, "pi", axes, (surface.theta, surface.spread_bid, surface.spread_ask)
    )


def surface_from_csv(text: str) -> PartialInfoSurface:
    """Inverse of ``surface_to_csv``; rows may come in any order.  Raises
    ``ValueError`` for a grid that misses a node of the spec's inventories
    or of a uniform belief grid, for a missing ``cfl_*`` or
    ``belief_gradient_scale`` header and for a negative scale."""
    lines, (times, levels, pis), tables = grid_from_csv(text)
    config_lines = []
    headers: dict[str, str] = {}
    for line in lines:
        key, _, val = line.partition("=")
        if key.strip().startswith(("cfl_", "belief_gradient_scale", "manifest")):
            headers[key.strip()] = val.strip()
        else:
            config_lines.append(line)
    spec = parse_config("\n".join(config_lines))
    if not np.array_equal(levels, spec.inventory_levels()):
        raise ValueError("grid file inventories do not match the inventory cap")
    if not np.array_equal(pis, np.linspace(0.0, 1.0, len(pis))):
        raise ValueError("grid file beliefs are not a uniform grid over [0, 1]")
    try:
        report = CflReport(
            max_coefficient=float(headers["cfl_max_coeff"]),
            min_dt=float(headers["cfl_min_dt"]),
            max_dt=float(headers["cfl_max_dt"]),
            n_steps=int(headers["cfl_n_steps"]),
        )
        scale = float(headers["belief_gradient_scale"])
    except KeyError as exc:
        raise ValueError(f"grid file has no {exc.args[0]} header") from None
    if not scale >= 0.0:
        raise ValueError(f"grid file belief_gradient_scale {scale:g} must be >= 0")
    return PartialInfoSurface(spec, times, pis, *tables, report, scale)
