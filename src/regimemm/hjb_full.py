"""Full-information solver: the market maker observes the regime directly.

The value decomposition leaves a terminal-value ODE system for theta(t, n, i)
over inventory levels and regimes, with right-hand side built from the
per-regime Hamiltonians applied to inventory-difference arguments.  A finite
inventory cap makes it a nonlinear system, integrated backward with
classical RK4.

Everything of the right-hand side that depends only on the spec is a
``_Plan``, built once per solve: the drift and inventory-penalty term, and
the intensity groups.  Every exponential, logistic or arctan curve, of any
regime and side, falls into the one group of its kind that passes
per-column parameter arrays through ``intensity``'s maximizer, so a market
of one such kind makes one ``hamiltonian_value`` call per RK4 stage; a
power-law or tabulated curve makes one call per distinct family.  Each
group's family is ``intensity.prepared`` once per solve, so the
maximizer's constants that do not depend on d are not recomputed at each
stage.  A march raises ``NumericsError`` at its first time level outside
the comparison sandwich, without marching the levels below it.

Without a given step count, the march's count comes from step doubling
(Richardson, Phil. Trans. R. Soc. A 210, 1911).  The search marches 100
steps, then 200, 400 and so on, each rung's march the next one's half-step
partner, and stops at the first rung whose two error estimates pass
``THETA_TOLERANCE`` and ``SPREAD_TOLERANCE``:

- theta, sup |theta_n - theta_n/2| / 15 over the common nodes (RK4's
  error falls 16-fold per halving);
- the spread lookup, which is linear in t and so O(dt^2): sup over the
  n grid's odd nodes of |the n/2 surface's ``policy`` there - the n
  surface's stored spread| / 4.

A rung that leaves the sandwich means "double"; past ``SEARCH_CAP`` steps
the search raises ``NumericsError``.  So does a rung whose estimates miss
when neither could pass by ``SEARCH_CAP`` steps even if it fell 16-fold
per doubling from there: that is RK4's order, and four times the spread
estimate's nominal rate.  Either estimate alone does not stop the search,
since before its asymptotic rate the theta estimate can fall faster (22-
and 34-fold per doubling on a market with one regime's rates at 10 000,
whose spread estimate falls 3.5-fold).  The surface carries the chosen count
and both estimates in a ``MarchReport``.  A given step count marches that
count alone and reports no estimate.

The solve stores the feedback spreads at every node, and ``policy`` reads
them back, linear in t, through the same ``grid.gather_spreads`` as the
partial-information policy: a lookup evaluates no intensity function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, UnsupportedConfigError
from .grid import check_count, gather, gather_spreads, grid_from_csv, grid_to_csv, inventory_row, time_bracket
from .intensity import STUB_SPREAD, IntensityFamily, hamiltonian_value, optimal_spread, prepared, utility
from .model import ModelSpec, format_config, parse_config

THETA_TOLERANCE = 1e-9  # on the theta estimate
# on the spread-lookup estimate: 7x below the partial scheme's own spread
# error at m_pi = 200; a spread error of 1e-6 moves the value by about 1e-12
SPREAD_TOLERANCE = 2e-6
SEARCH_START = 100  # the step search's first rung
SEARCH_CAP = 100 * 2**9  # its last
_SANDWICH_SLACK = 1e-12  # rounding room at the comparison bounds


@dataclass(frozen=True)
class _Plan:
    """The spec-dependent parts of the right-hand side and the spread tables.

    The side axis has 2k columns: every regime's bid curve, then every
    regime's ask curve.  ``groups`` pairs a family, prepared at the spec's
    gamma and spread bounds, with the columns it covers (an index of that
    axis), one maximizer call each.  The
    exponential, logistic and arctan columns form one group per kind whose
    family carries per-column parameter arrays; every distinct power-law or
    tabulated family is a group of its own.
    """

    spec: ModelSpec
    base: np.ndarray  # (2 N* + 1, 1): spec.running_reward of each inventory row
    groups: tuple  # ((family, column index), ...)

    @staticmethod
    def build(spec: ModelSpec) -> "_Plan":
        base = spec.running_reward(spec.inventory_levels().astype(float))
        families = [r.bid_intensity for r in spec.regimes] + [r.ask_intensity for r in spec.regimes]
        keys = [f if f.kind in ("tabulated", "power_law") else f.kind for f in families]
        groups = []
        for key in dict.fromkeys(keys):
            cols = [j for j, other in enumerate(keys) if other == key]
            fam = families[cols[0]]
            if isinstance(key, str):  # a kind, not one family
                params = zip(*(families[j].params for j in cols))
                fam = IntensityFamily(fam.kind, tuple(np.array(p) for p in params))
            fam = prepared(fam, spec.risk_aversion_gamma, spec.spread_bounds)
            groups.append((fam, slice(None) if len(cols) == len(keys) else np.array(cols)))
        return _Plan(spec, base[:, None], tuple(groups))


def _regime_column(spec: ModelSpec, i):
    """0-based table column of the 1-based regime indices ``i``, after
    checking that they lie in 1..k."""
    col = np.asarray(i) - 1
    if np.any((col < 0) | (col >= spec.n_regimes)):
        raise ValueError(f"regime index outside 1..{spec.n_regimes}")
    return col


@dataclass(frozen=True)
class MarchReport:
    """The step count the search chose and its step-doubling estimates of
    the error of theta at the nodes and of an off-node spread lookup."""

    n_steps: int
    theta_error: float
    spread_error: float


@dataclass(frozen=True)
class FullInfoSurface:
    """theta(t, n, i) plus feedback spread tables on a uniform time grid.

    theta has shape (len(time_grid), 2 N* + 1, k); inventory row r holds
    n = r - N*.  Blocked sides carry the stub sentinel in the spread tables.
    ``march`` is None for a surface of a given step count.
    """

    spec: ModelSpec
    time_grid: np.ndarray
    theta: np.ndarray
    spread_bid: np.ndarray
    spread_ask: np.ndarray
    march: MarchReport | None = None

    def _brackets(self, t, n, i):
        """Domain-checked ``gather`` arguments of broadcast points (t, n, i);
        i is a 1-based regime index."""
        s, w = time_bracket(self.time_grid, t)
        rows = inventory_row(int(self.spec.inventory_cap_Nstar), n)
        return s, w, rows, _regime_column(self.spec, i)

    def theta_at(self, t, n, i):
        """theta at broadcast (t, n, i), linear in t; scalars give a float."""
        value = gather(self.theta, *self._brackets(t, n, i))
        return float(value) if value.ndim == 0 else value


def _coupling(theta_panel: np.ndarray, q: np.ndarray, gamma: float) -> np.ndarray:
    """Regime-coupling term sum_j q_ij U_gamma(theta_j - theta_i), vectorized
    over inventory rows.  One code path: U_0 reduces it to the linear action."""
    diffs = theta_panel[:, None, :] - theta_panel[:, :, None]  # [n, i, j] = th_j - th_i
    return np.einsum("ij,nij->ni", q, np.asarray(utility(gamma, diffs)))


def _per_side(plan: _Plan, fn, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fn(family, gamma, d, bounds)`` at every inventory difference of
    ``theta`` (..., 2 N* + 1, k), with one call per group of ``plan``.

    Returns (bid, ask), each (..., 2 N*, k), whose row r pairs the levels
    n = r - N* and n + 1: bid holds the value at d = theta(n + 1) - theta(n),
    the bid quoted at n, and ask the value at d = theta(n) - theta(n + 1),
    the ask quoted at n + 1.
    """
    spec = plan.spec
    k = spec.n_regimes
    up, down = theta[..., 1:, :], theta[..., :-1, :]
    values = np.empty(up.shape[:-1] + (2 * k,))  # bid columns, then ask columns
    np.subtract(up, down, out=values[..., :k])
    np.subtract(down, up, out=values[..., k:])
    for fam, cols in plan.groups:
        # a group's columns are read before fn's values replace them
        values[..., cols] = fn(fam, spec.risk_aversion_gamma, values[..., cols], spec.spread_bounds)
    return values[..., :k], values[..., k:]


def _rhs(plan: _Plan, theta_panel: np.ndarray) -> np.ndarray:
    """Right-hand side of d theta / d tau (backward time) at one panel."""
    spec = plan.spec
    out = plan.base + _coupling(theta_panel, spec.generator_Q, spec.risk_aversion_gamma)
    # the bid is active for n < N*, the ask for n > -N*
    h_bid, h_ask = _per_side(plan, hamiltonian_value, theta_panel)
    out[:-1] += h_bid
    out[1:] += h_ask
    return out


def _spread_tables(plan: _Plan, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feedback spreads at every node of ``theta`` (..., 2 N* + 1, k), with
    the stub sentinel on blocked sides."""
    bid = np.full_like(theta, STUB_SPREAD)
    ask = np.full_like(theta, STUB_SPREAD)
    bid[..., :-1, :], ask[..., 1:, :] = _per_side(plan, optimal_spread, theta)
    return bid, ask


def _march(deriv, terminal: np.ndarray, T: float, n_steps: int, bounds=(-np.inf, np.inf)) -> np.ndarray:
    """Classical RK4 for d y / d tau = deriv(t, y), tau = T - t, from
    y(T) = terminal down to t = 0 over ``n_steps`` uniform steps; row s of
    the result is y at t = s T / n_steps.  Raises ``NumericsError`` at the
    first level with a value outside ``bounds`` or not finite."""
    h = T / n_steps
    bottom, top = bounds
    y = np.empty((n_steps + 1,) + terminal.shape)
    y[n_steps] = terminal
    for s in range(n_steps, 0, -1):
        t, here = s * h, y[s]
        k1 = deriv(t, here)
        k2 = deriv(t - 0.5 * h, here + 0.5 * h * k1)
        k3 = deriv(t - 0.5 * h, here + 0.5 * h * k2)
        k4 = deriv(t - h, here + h * k3)
        y[s - 1] = here + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        level = y[s - 1]
        # a NaN fails both comparisons
        if not (level.max() <= top and level.min() >= bottom):
            finite = np.isfinite(level).all()
            found = f"spans [{level.min():.6g}, {level.max():.6g}]" if finite else "is not finite"
            raise NumericsError(
                f"full-information march at {n_steps} steps is unstable: theta {found} "
                f"at t = {t - h:.6g}, outside the comparison bounds [{bottom:.6g}, {top:.6g}]"
            )
    return y


def _surface(plan: _Plan, bounds: tuple[float, float], n_steps: int) -> FullInfoSurface:
    """theta and the spread tables of one march of ``n_steps`` steps that
    stays within ``bounds``."""
    spec = plan.spec
    levels = spec.inventory_levels().astype(float)
    terminal = np.repeat(-spec.terminal_cost(levels)[:, None], spec.n_regimes, axis=1)
    # _rhs is looked up at every call, so a wrapper patched onto it sees them;
    # an unstable march overflows, which _march's bounds check reports
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _march(lambda t, y: _rhs(plan, y), terminal, spec.horizon_T, n_steps, bounds)
    time_grid = np.linspace(0.0, spec.horizon_T, n_steps + 1)
    return FullInfoSurface(spec, time_grid, theta, *_spread_tables(plan, theta))


def _estimates(half: FullInfoSurface, surface: FullInfoSurface) -> MarchReport:
    """Step-doubling error estimates of ``surface`` against ``half``, the
    march of half as many steps."""
    theta_error = np.max(np.abs(surface.theta[::2] - half.theta)) / 15.0
    # half's policy at surface's odd levels is the mean of its two
    # neighbouring levels; the blocked sides' stub rows (the top bid row,
    # the bottom ask row) are left out
    spread_error = 0.0
    for coarse, fine, rows in (
        (half.spread_bid, surface.spread_bid, slice(None, -1)),
        (half.spread_ask, surface.spread_ask, slice(1, None)),
    ):
        coarse, fine = coarse[:, rows], fine[1::2, rows]
        spread_error = max(spread_error, np.max(np.abs(0.5 * (coarse[:-1] + coarse[1:]) - fine)) / 4.0)
    return MarchReport(len(surface.time_grid) - 1, float(theta_error), float(spread_error))


def _search(plan: _Plan, bounds: tuple[float, float]) -> FullInfoSurface:
    """The surface of the first rung of the doubling search whose
    estimates pass both tolerances."""
    half, n_steps = None, SEARCH_START
    while True:
        try:
            surface = _surface(plan, bounds, n_steps)
        except NumericsError as exc:  # too coarse: double
            surface, why = None, str(exc)
        else:
            if half is None:
                why = (
                    f"full-information march at {n_steps} steps has no stable march "
                    "at half the steps to estimate its error"
                )
            else:
                report = _estimates(half, surface)
                if report.theta_error <= THETA_TOLERANCE and report.spread_error <= SPREAD_TOLERANCE:
                    return replace(surface, march=report)
                why = (
                    f"full-information march at {n_steps} steps misses the error tolerance: "
                    f"theta estimate {report.theta_error:.3g} (tolerance {THETA_TOLERANCE:g}), "
                    f"spread estimate {report.spread_error:.3g} (tolerance {SPREAD_TOLERANCE:g})"
                )
                fall = (n_steps / SEARCH_CAP) ** 4  # 16-fold per doubling up to the cap
                theta_best, spread_best = report.theta_error * fall, report.spread_error * fall
                if n_steps < SEARCH_CAP and theta_best > THETA_TOLERANCE and spread_best > SPREAD_TOLERANCE:
                    raise NumericsError(
                        f"{why}; falling 16-fold per doubling, they would still miss at {SEARCH_CAP} "
                        f"steps, the most the step search tries: theta {theta_best:.3g}, spread {spread_best:.3g}"
                    )
        if n_steps >= SEARCH_CAP:
            raise NumericsError(f"{why}; {SEARCH_CAP} steps is the most the step search tries")
        half, n_steps = surface, 2 * n_steps


def solve_constrained(spec: ModelSpec, n_steps: int | None = None) -> FullInfoSurface:
    """Backward RK4 integration of the capped-inventory system.

    Terminal condition theta(T, n, i) = -c n^2; marches a uniform grid down
    to t = 0 and stores theta plus the feedback spreads at every level.
    With ``n_steps`` None the step count comes from the doubling search
    (see the module docstring), whose ``MarchReport`` the surface carries;
    a given ``n_steps`` marches exactly that many steps and reports no
    estimate.  Raises ``NumericsError`` when theta is not finite or leaves
    the ``comparison_bounds`` sandwich, the mark of a march too coarse for
    its rates: at the given count, or at every count the search tries.
    """
    if spec.unbounded_inventory:
        raise UnsupportedConfigError("full-information solver requires a finite inventory cap")
    if n_steps is not None:
        n_steps = check_count("n_steps", n_steps)
    plan = _Plan.build(spec)
    k_upper, k_lower = _sandwich(plan)
    T = spec.horizon_T
    bounds = (-k_upper * T - k_lower - _SANDWICH_SLACK, k_upper * T + _SANDWICH_SLACK)
    if n_steps is None:
        return _search(plan, bounds)
    try:
        return _surface(plan, bounds, n_steps)
    except NumericsError as exc:
        raise NumericsError(f"{exc}; take more time steps") from None


def policy(surface: FullInfoSurface, t, n, i):
    """Feedback spreads at (t, n, i), linear in t between the stored spread
    tables' time levels; blocked sides return the stub sentinel.

    The arguments broadcast against each other: scalars give a pair of
    floats, arrays (a batch of paths) a pair of arrays.
    """
    return gather_spreads(surface.spread_bid, surface.spread_ask, *surface._brackets(t, n, i))


def comparison_bounds(spec: ModelSpec) -> tuple[float, float]:
    """Constants (K_upper, K_lower) of the super/sub-solution sandwich:
    -K_upper T - K_lower <= theta <= K_upper T at every grid node.  K_upper
    is the largest |right-hand side| at the zero panel."""
    return _sandwich(_Plan.build(spec))


def _sandwich(plan: _Plan) -> tuple[float, float]:
    spec = plan.spec
    zeros = np.zeros((plan.base.shape[0], spec.n_regimes))
    k_upper = float(np.max(np.abs(_rhs(plan, zeros))))
    return k_upper, float(spec.terminal_cost(spec.inventory_cap_Nstar))


# -- persistence ----------------------------------------------------------------


def surface_to_csv(surface: FullInfoSurface, extra_headers: dict | None = None) -> str:
    """Grid file: '# key = value' spec echo headers, the ``march_*``
    report headers of a searched surface, then one row per (t, n, i) node
    with theta and both spreads, 17 significant digits."""
    spec = surface.spec
    headers = format_config(spec).strip().splitlines()
    if surface.march is not None:
        headers += [
            f"march_n_steps = {surface.march.n_steps}",
            f"march_theta_error = {surface.march.theta_error:.17g}",
            f"march_spread_error = {surface.march.spread_error:.17g}",
        ]
    headers += [f"{key} = {val}" for key, val in (extra_headers or {}).items()]
    axes = (surface.time_grid, spec.inventory_levels(), np.arange(1, spec.n_regimes + 1))
    return grid_to_csv(
        headers, "i", axes, (surface.theta, surface.spread_bid, surface.spread_ask)
    )


def surface_from_csv(text: str) -> FullInfoSurface:
    """Inverse of ``surface_to_csv``, without the ``march_*`` report; rows
    may come in any order.  Raises ``ValueError`` for a grid that misses a
    node of the spec's inventories and regimes."""
    headers, (times, levels, regimes), tables = grid_from_csv(text)
    spec = parse_config(
        "\n".join(h for h in headers if not h.startswith(("manifest", "cfl_", "march_")))
    )
    if not np.array_equal(levels, spec.inventory_levels()):
        raise ValueError("grid file inventories do not match the inventory cap")
    if not np.array_equal(regimes, np.arange(1, spec.n_regimes + 1)):
        raise ValueError(f"grid file regimes do not match 1..{spec.n_regimes}")
    return FullInfoSurface(spec, times, *tables)
