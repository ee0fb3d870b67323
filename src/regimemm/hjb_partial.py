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
The march holds only two levels; the surface keeps the output time grid of
``output_times``, graded toward T where theta and the spreads bend fastest,
each output level being the linear time interpolation of the two marching
levels around it.  ``SCHEME`` names the march and that grid.

With no drift (mu = 0, -0.0 included) the market is its own mirror image in
inventory: the running reward -sigma^2 zeta n^2 / 2, the terminal cost
c n^2, the +-N* caps and the spread bounds are even in n, and the bid and
ask curves are equal, so theta(t, -n, pi) = theta(t, n, pi) and the bid at
-n is the ask at n.  Such a march advances only the rows n = 0..N*: the ask
at n = 0 moves to row -1, the mirror of row +1, so its Hamiltonian argument
is the bid's bit for bit and row 0 counts its bid twice.  Each output level
mirrors rows 0..N* into the negative rows.  The stored tables equal the
full-panel march's bit for bit, and so does its CFL report, whose maximum
the mirrored rows repeat.  A drifting market marches every row.

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

from .errors import NumericsError
from .grid import (
    DEFAULT_PI_CELLS, belief_bracket, check_count, gather, gather_spreads, grid_from_csv, grid_to_csv,
    inventory_row, time_bracket,
)
from .intensity import STUB_SPREAD, eval_intensity, optimal_spread, prepared
from .model import ModelSpec, check_horizon, format_config, parse_config, two_regime_reduction

CFL_SAFETY = 0.9  # fraction of the stable step the march takes
# the march and the stored time grid, recorded in the manifest of every
# command that solves a partial surface: change it when either changes
SCHEME = "upwind-euler-cfl0.9/time-graded-1.75-9sqrt"
GRADING = 1.75  # the stored time grid's power p: t = T (1 - u^p), u evenly from 1 to 0
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
    row r holds n = r - N*.  The time grid is the output grid
    ``output_times(T, m_pi)``, graded toward T, not the CFL march's levels,
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

    Any market that ``two_regime_reduction`` accepts is marched: its
    generator is valid, so q_hat(0) = q21 >= 0 and q_hat(1) = q11 <= 0, and
    the transport points inward, or vanishes, at both belief ends.  An
    absorbing regime (q11 = 0, q21 = 0 or Q = 0) makes its end of the belief
    axis absorbing too, and the step stays monotone.

    The panel's rows are every inventory -N*..N*.  ``solve`` sets
    ``_mirror`` for a market with no drift, whose rows are then n = 0..N*
    only, their negative mirror images left out (see the module docstring).
    """

    def __init__(
        self, spec: ModelSpec, m_pi: int, belief_gradient_scale: float = 1.0, *, _mirror: bool = False
    ):
        if _mirror and spec.drift_mu != 0.0:
            raise ValueError("only a market with no drift is its own mirror image")
        red = two_regime_reduction(spec)
        self.scale = float(belief_gradient_scale)
        if not self.scale >= 0.0:
            # a negative scale flips the upwind coefficients: the explicit
            # step is then not monotone (Barles-Souganidis)
            raise ValueError(f"belief_gradient_scale {self.scale:g} must be >= 0")
        self.spec = spec
        self.red = red
        self.lam = prepared(red.lam, spec.risk_aversion_gamma, spec.spread_bounds)
        self.mirror = _mirror
        levels = spec.inventory_levels()
        self.levels = (levels[len(levels) // 2 :] if _mirror else levels).astype(float)
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

        ``spreads`` is (2, rows - 1, m_pi + 1): the bid quoted at rows :-1
        (n -> n + 1) and the ask quoted at rows 1: (n -> n - 1).  The
        blocked sides, the bid at the top row (n = N*) and the ask at the
        bottom row (n = -N*), have no entry.  A mirrored panel's bottom row
        is n = 0, whose ask is its bid.
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
        if self.mirror:  # n = 0's ask, the mirror image of its bid
            rate[0] += lam[0, 0]
            term[0] += gain[0, 0]

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
    """Stored time levels L of a surface with ``m_pi`` belief cells.

    A lookup's time-interpolation error falls like 1/L^2 and the scheme's
    own error like 1/m_pi, so L grows like sqrt(m_pi): 1 + ceil(9 sqrt(m_pi)),
    129 at m_pi = 200.  On table1 that is fewer levels than the CFL march
    takes (about 5.6 m_pi) at every m_pi.  On the graded grid of
    ``output_times``, 20 000 random lookups of theta and of each spread on
    table1 stay within 0.31 of that quantity's gap between the m_pi and
    2 m_pi solutions at every m_pi from 10 to 800
    (``tests/output_grid_study.py``).
    """
    return 1 + math.ceil(9.0 * math.sqrt(m_pi))


def output_times(T: float, m_pi: int) -> np.ndarray:
    """The stored time levels over [0, T] of a surface with ``m_pi`` belief
    cells: t_j = T (1 - (1 - j / (L - 1))^p) for j < L = output_levels(m_pi)
    and p = ``GRADING``, so t_0 = 0 and t_(L-1) = T exactly.

    The spacing shrinks toward T like (T - t)^(1 - 1/p), into the layer
    where the terminal condition meets the running reward and theta and
    the spreads bend fastest.  Spacing the knots by the curvature
    equidistributes the error of piecewise-linear interpolation (de Boor,
    LNM 363, 1974).  p = 2 suits a curvature like 1/(T - t), and stores
    table1 best, but a drifting market bends early too and stores no
    better than on the uniform grid; p = 1.75 beats the uniform grid on
    both (``tests/output_grid_study.py``).  Raises ``ValueError`` with
    ``validate``'s message unless T is finite and > 0.
    """
    u = np.linspace(1.0, 0.0, output_levels(m_pi))  # 1 - j / (L - 1)
    return check_horizon(T) * (1.0 - u**GRADING)


def solve(
    spec: ModelSpec,
    m_pi: int = DEFAULT_PI_CELLS,
    *,
    belief_gradient_scale: float = 1.0,
) -> PartialInfoSurface:
    """March theta backward from theta(T, n, pi) = -c n^2.

    ``m_pi`` is the number of belief cells (m_pi + 1 nodes).  Each time
    step is ``CFL_SAFETY`` times the stable step at its level, cut short at
    t = 0.

    Only the two marching levels around the current time are held.  The
    surface stores the levels ``output_times(T, m_pi)``, each the linear
    time interpolation of the marching levels around it, which is the value
    a lookup on every marching level would return there.

    When ``spec.drift_mu == 0`` the march advances only the rows
    n = 0..N*, and each output level writes them and mirrors them:
    theta(-n) = theta(n), bid(-n) = ask(n) and ask(-n) = bid(n).  The
    surface and its CFL report are those of the full-panel march, bit for
    bit.  Any other drift marches every row.  Raises ``ValueError`` for a
    cap that is not a positive integer and for a horizon that is not finite
    and > 0.
    """
    levels = spec.inventory_levels()
    n_star = len(levels) // 2
    mirror = spec.drift_mu == 0.0
    stepper = Stepper(spec, m_pi, belief_gradient_scale, _mirror=mirror)
    T = spec.horizon_T
    out_t = output_times(T, m_pi)
    theta = stepper.terminal_panel()

    out_theta = np.empty((len(out_t), len(levels), len(stepper.pi_grid)))
    out_bid = np.full_like(out_theta, STUB_SPREAD)
    out_ask = np.full_like(out_theta, STUB_SPREAD)
    first = n_star if mirror else 0  # the output row of the bottom marching row
    nxt = len(out_t) - 1  # highest output level not yet written

    max_coeff = 0.0
    min_dt, max_dt, n_steps = math.inf, 0.0, 0
    t = T
    spreads, rhs, coeff = stepper.evaluate(theta)
    while t > 0.0:
        max_coeff = max(max_coeff, coeff)
        dt = min(CFL_SAFETY / coeff if coeff > 0.0 else math.inf, t)
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
            level, bid, ask = out_theta[nxt], out_bid[nxt], out_ask[nxt]
            level[first:] = (1 - w) * theta + w * theta_up
            # a blocked side (bid at n = N*, ask at n = -N*) keeps its stub at
            # every level: interpolating it would form 0 * inf = NaN
            bid[first:-1], ask[first + 1 :] = (1 - w) * spreads + w * spreads_up
            if mirror:  # one level at a time: its halves do not overlap in memory
                ask[n_star] = bid[n_star]
                level[:n_star] = level[:n_star:-1]
                bid[:n_star] = ask[:n_star:-1]
                ask[1:n_star] = bid[-2:n_star:-1]
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
