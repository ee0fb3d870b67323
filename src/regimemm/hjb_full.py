"""Full-information solver: the market maker observes the regime directly.

The value decomposition leaves a terminal-value ODE system for theta(t, n, i)
over inventory levels and regimes, with right-hand side built from the
per-regime Hamiltonians applied to inventory-difference arguments.  A finite
inventory cap gives a nonlinear system integrated backward with classical
RK4; the unconstrained risk-neutral case collapses to a linear system for a
per-regime profile phi_i(t) plus the explicit drift term mu n (T - t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedConfigError
from .grid import check_count, gather, grid_from_csv, grid_to_csv, inventory_row, time_bracket
from .intensity import STUB_SPREAD, hamiltonian_value, optimal_spread, utility
from .model import ModelSpec, format_config, parse_config

DEFAULT_TIME_STEPS = 2000


def _regime_column(spec: ModelSpec, i):
    """0-based table column of the 1-based regime indices ``i``, after
    checking that they lie in 1..k."""
    col = np.asarray(i) - 1
    if np.any((col < 0) | (col >= spec.n_regimes)):
        raise ValueError(f"regime index outside 1..{spec.n_regimes}")
    return col


@dataclass(frozen=True)
class FullInfoSurface:
    """theta(t, n, i) plus feedback spread tables on a uniform time grid.

    theta has shape (len(time_grid), 2 N* + 1, k); inventory row r holds
    n = r - N*.  Blocked sides carry the stub sentinel in the spread tables.
    """

    spec: ModelSpec
    time_grid: np.ndarray
    theta: np.ndarray
    spread_bid: np.ndarray
    spread_ask: np.ndarray

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


def _per_side(spec: ModelSpec, fn, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fn(family, gamma, d, bounds)`` at every inventory difference of
    ``theta`` (..., 2 N* + 1, k), with one call per distinct intensity family.

    Returns (bid, ask), each (..., 2 N*, k), whose row r pairs the levels
    n = r - N* and n + 1: bid holds the value at d = theta(n + 1) - theta(n),
    the bid quoted at n, and ask the value at d = theta(n) - theta(n + 1),
    the ask quoted at n + 1.
    """
    k = spec.n_regimes
    up, down = theta[..., 1:, :], theta[..., :-1, :]
    values = np.empty(up.shape[:-1] + (2 * k,))  # bid columns, then ask columns
    np.subtract(up, down, out=values[..., :k])
    np.subtract(down, up, out=values[..., k:])
    families = [r.bid_intensity for r in spec.regimes] + [r.ask_intensity for r in spec.regimes]
    for fam in dict.fromkeys(families):
        # a family's columns are copied out before fn's values replace them
        cols = [j for j, other in enumerate(families) if other == fam]
        values[..., cols] = fn(fam, spec.risk_aversion_gamma, values[..., cols], spec.spread_bounds)
    return values[..., :k], values[..., k:]


def _rhs(spec: ModelSpec, levels: np.ndarray, theta_panel: np.ndarray) -> np.ndarray:
    """Right-hand side of d theta / d tau (backward time) at one panel."""
    gamma = spec.risk_aversion_gamma
    out = np.empty_like(theta_panel)
    base = spec.drift_mu * levels - 0.5 * spec.vol_sigma**2 * levels**2 * (
        spec.running_penalty_zeta + gamma
    )
    out[:] = base[:, None]
    out += _coupling(theta_panel, spec.generator_Q, gamma)
    # the bid is active for n < N*, the ask for n > -N*
    h_bid, h_ask = _per_side(spec, hamiltonian_value, theta_panel)
    out[:-1] += h_bid
    out[1:] += h_ask
    return out


def _spread_tables(spec: ModelSpec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feedback spreads at every node of ``theta`` (..., 2 N* + 1, k), with
    the stub sentinel on blocked sides."""
    bid = np.full_like(theta, STUB_SPREAD)
    ask = np.full_like(theta, STUB_SPREAD)
    bid[..., :-1, :], ask[..., 1:, :] = _per_side(spec, optimal_spread, theta)
    return bid, ask


def _march(deriv, terminal: np.ndarray, T: float, n_steps: int) -> np.ndarray:
    """Classical RK4 for d y / d tau = deriv(t, y), tau = T - t, from
    y(T) = terminal down to t = 0 over ``n_steps`` uniform steps; row s of
    the result is y at t = s T / n_steps."""
    h = T / n_steps
    y = np.empty((n_steps + 1,) + terminal.shape)
    y[n_steps] = terminal
    for s in range(n_steps, 0, -1):
        t, here = s * h, y[s]
        k1 = deriv(t, here)
        k2 = deriv(t - 0.5 * h, here + 0.5 * h * k1)
        k3 = deriv(t - 0.5 * h, here + 0.5 * h * k2)
        k4 = deriv(t - h, here + h * k3)
        y[s - 1] = here + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def solve_constrained(spec: ModelSpec, n_steps: int = DEFAULT_TIME_STEPS) -> FullInfoSurface:
    """Backward RK4 integration of the capped-inventory system.

    Terminal condition theta(T, n, i) = -c n^2; marches a uniform grid of
    ``n_steps`` steps down to t = 0 and stores theta plus the feedback
    spreads at every level.
    """
    if spec.unbounded_inventory:
        raise UnsupportedConfigError("finite inventory cap required; use solve_unconstrained")
    n_steps = check_count("n_steps", n_steps)
    levels = spec.inventory_levels().astype(float)
    terminal = np.repeat(-spec.terminal_cost(levels)[:, None], spec.n_regimes, axis=1)
    # _rhs is looked up at every call, so a wrapper patched onto it sees them
    theta = _march(lambda t, y: _rhs(spec, levels, y), terminal, spec.horizon_T, n_steps)

    time_grid = np.linspace(0.0, spec.horizon_T, n_steps + 1)
    return FullInfoSurface(spec, time_grid, theta, *_spread_tables(spec, theta))


def policy(surface: FullInfoSurface, t, n, i):
    """Feedback spreads at (t, n, i); blocked sides return the stub sentinel.

    theta is interpolated linearly in t and the spreads recomputed from the
    interpolated inventory differences, so the policy is continuous in t.
    The arguments broadcast against each other: scalars give a pair of
    floats, arrays (a batch of paths) a pair of arrays, with one spread
    evaluation per regime.
    """
    spec = surface.spec
    top = 2 * int(spec.inventory_cap_Nstar)
    s, w, r, col = surface._brackets(t, n, i)
    here = gather(surface.theta, s, w, r, col)
    d_bid = gather(surface.theta, s, w, np.minimum(r + 1, top), col) - here
    d_ask = gather(surface.theta, s, w, np.maximum(r - 1, 0), col) - here
    n, col = np.broadcast_to(n, here.shape), np.broadcast_to(col, here.shape)
    bid = np.full(here.shape, STUB_SPREAD)
    ask = np.full(here.shape, STUB_SPREAD)
    gamma = spec.risk_aversion_gamma
    bounds = spec.spread_bounds
    for k, regime in enumerate(spec.regimes):
        on = (col == k) & spec.bid_active(n)
        bid[on] = optimal_spread(regime.bid_intensity, gamma, d_bid[on], bounds)
        on = (col == k) & spec.ask_active(n)
        ask[on] = optimal_spread(regime.ask_intensity, gamma, d_ask[on], bounds)
    if bid.ndim == 0:
        return float(bid), float(ask)
    return bid, ask


def comparison_bounds(spec: ModelSpec) -> tuple[float, float]:
    """Constants (K_upper, K_lower) of the super/sub-solution sandwich:
    -K_upper T - K_lower <= theta <= K_upper T at every grid node.  K_upper
    is the largest |right-hand side| at the zero panel."""
    levels = spec.inventory_levels().astype(float)
    zeros = np.zeros((levels.size, spec.n_regimes))
    k_upper = float(np.max(np.abs(_rhs(spec, levels, zeros))))
    return k_upper, float(spec.terminal_cost(spec.inventory_cap_Nstar))


# -- unconstrained inventory ---------------------------------------------------


@dataclass(frozen=True)
class UnconstrainedSolution:
    """Per-regime profile phi_i(t) with theta(t, n, i) = mu n (T - t) + phi_i(t)."""

    spec: ModelSpec
    time_grid: np.ndarray
    phi: np.ndarray  # shape (len(time_grid), k)

    def phi_at(self, t: float) -> np.ndarray:
        """(phi_1, ..., phi_k) at one time t, linear in t."""
        return gather(self.phi[:, None, :], *time_bracket(self.time_grid, t), 0, slice(None))

    def theta_at(self, t, n, i):
        """theta at broadcast (t, n, i); i is a 1-based regime index and
        scalars give a float."""
        col = _regime_column(self.spec, i)
        phi = gather(self.phi[:, None, :], *time_bracket(self.time_grid, t), 0, col)
        value = self.spec.drift_mu * n * (self.spec.horizon_T - t) + phi
        return float(value) if np.ndim(value) == 0 else value


def solve_unconstrained(spec: ModelSpec, n_steps: int = DEFAULT_TIME_STEPS) -> UnconstrainedSolution:
    """Backward RK4 for the linear system phi' = -Q phi + b, phi(T) = 0, with
    b_i(t) = -H_bid_i(mu (T - t)) - H_ask_i(-mu (T - t))."""
    if not spec.unbounded_inventory:
        raise UnsupportedConfigError("unconstrained solver requires an unbounded inventory cap")
    if (
        spec.risk_aversion_gamma != 0.0
        or spec.running_penalty_zeta != 0.0
        or spec.terminal_cost_c != 0.0
    ):
        raise UnsupportedConfigError("unconstrained inventory requires gamma = zeta = c = 0")
    n_steps = check_count("n_steps", n_steps)
    bounds = spec.spread_bounds
    q = spec.generator_Q
    T = spec.horizon_T

    def b_vec(t: float) -> np.ndarray:
        horizon = spec.drift_mu * (T - t)
        return np.array(
            [
                -hamiltonian_value(r.bid_intensity, 0.0, horizon, bounds)
                - hamiltonian_value(r.ask_intensity, 0.0, -horizon, bounds)
                for r in spec.regimes
            ]
        )

    def deriv(t: float, phi: np.ndarray) -> np.ndarray:
        # d phi / d tau with tau = T - t reverses the sign of phi'(t)
        return q @ phi - b_vec(t)

    phi = _march(deriv, np.zeros(spec.n_regimes), T, n_steps)
    return UnconstrainedSolution(spec, np.linspace(0.0, T, n_steps + 1), phi)


# -- persistence ----------------------------------------------------------------


def surface_to_csv(surface: FullInfoSurface, extra_headers: dict | None = None) -> str:
    """Grid file: '# key = value' spec echo headers, then one row per
    (t, n, i) node with theta and both spreads, 17 significant digits."""
    spec = surface.spec
    headers = format_config(spec).strip().splitlines()
    headers += [f"{key} = {val}" for key, val in (extra_headers or {}).items()]
    axes = (surface.time_grid, spec.inventory_levels(), np.arange(1, spec.n_regimes + 1))
    return grid_to_csv(
        headers, "i", axes, (surface.theta, surface.spread_bid, surface.spread_ask)
    )


def surface_from_csv(text: str) -> FullInfoSurface:
    """Inverse of ``surface_to_csv``; rows may come in any order.  Raises
    ``ValueError`` for a grid that misses a node of the spec's inventories
    and regimes."""
    headers, (times, levels, regimes), tables = grid_from_csv(text)
    spec = parse_config(
        "\n".join(h for h in headers if not h.startswith(("manifest", "cfl_")))
    )
    if not np.array_equal(levels, spec.inventory_levels()):
        raise ValueError("grid file inventories do not match the inventory cap")
    if not np.array_equal(regimes, np.arange(1, spec.n_regimes + 1)):
        raise ValueError(f"grid file regimes do not match 1..{spec.n_regimes}")
    return FullInfoSurface(spec, times, *tables)
