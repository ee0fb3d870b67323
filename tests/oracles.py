"""Independent reference implementations and diagnostics used by the test suites.

Everything here is deliberately written from scratch (plain loops, scipy
building blocks) and shares no code with the package internals it checks.
``march_levels``, ``solve_all_levels`` and ``solve_full_panel`` reuse the
partial scheme's ``Stepper``: what they check is the solver's storage and its rows, not the
step.  ``residual_report`` reuses the
full-information right-hand side to measure how well the RK4 march solves
it, and the curve diagnostics reuse the package's probe grid and curvature.
``rhs_loop``, ``solve_loop`` and ``policy_loop`` reuse the coupling term, the RK4 march,
the surface lookup and the maximizer: what they check is how the solver
groups its maximizer calls.  ``table_policy_loop`` reads the stored spread
tables one point at a time in plain Python, with no ``grid`` code.  ``solve_unconstrained`` is the linear system
of the N* -> inf limit, which ``solve_constrained`` approaches as the cap
grows.
"""

import bisect
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from regimemm.errors import NumericsError, UnsupportedConfigError
from regimemm.filtering import _FLOOR
from regimemm.grid import check_count, gather, time_bracket
from regimemm.hjb_full import FullInfoSurface, _coupling, _march, _Plan, _regime_column, _rhs
from regimemm.hjb_partial import CFL_SAFETY, CflReport, PartialInfoSurface, Stepper, output_times
from regimemm.intensity import (
    STUB_SPREAD,
    _probe_grid,
    eval_curvature,
    eval_derivative,
    eval_intensity,
    hamiltonian_value,
    optimal_spread,
)
from regimemm.model import format_config


def exact_filter(spec, delta_bid, delta_ask, record):
    """Closed-form belief at every row of a path recorded under constant quotes.

    With constant quotes the unnormalized filter is linear: between fills
    rho(t) = rho(s) expm((Q - diag lam(n)) (t - s)), where lam(n) sums each
    side's regime intensities while that side's inventory gate is open, and
    a fill multiplies rho by the fill side's intensities.  The inventory
    between two rows is the earlier row's (a fill row holds the inventory
    after the fill), and a fill row's belief is the one after the update.
    Returns the normalized beliefs, shaped like ``record.probs``.
    """
    lam_bid = np.array([eval_intensity(r.bid_intensity, delta_bid) for r in spec.regimes])
    lam_ask = np.array([eval_intensity(r.ask_intensity, delta_ask) for r in spec.regimes])
    rho = spec.initial_filter_mu0.copy()
    out = np.empty((len(record.times), spec.n_regimes))
    out[0] = rho
    for row in range(1, len(record.times)):
        n = int(record.inventory[row - 1])
        rate = lam_bid * (n < spec.inventory_cap_Nstar) + lam_ask * (-n < spec.inventory_cap_Nstar)
        dt = record.times[row] - record.times[row - 1]
        rho = rho @ expm((spec.generator_Q - np.diag(rate)) * dt)
        side = record.event_side[row]
        if side:
            rho = rho * (lam_bid if side == "bid" else lam_ask)
        rho = rho / rho.sum()
        out[row] = rho
    return out


def check_simplex(pi, atol=1e-10):
    """Raise ``ValueError`` unless every belief in ``pi``, one (k,) or a
    (P, k) batch, sums to 1 within ``atol`` with every coordinate at or
    above the simplex floor."""
    pi = np.asarray(pi, dtype=float)
    if np.any(np.abs(pi.sum(axis=-1) - 1.0) > atol):
        raise ValueError("belief does not sum to 1")
    if not np.all(pi >= _FLOOR):
        raise ValueError("belief coordinate below the simplex floor")


def exponential_closed_form(spec, times):
    """theta(t, n, i) at ``times`` of a market whose regimes do not switch
    (Q = 0) and quote exponential curves a e^(-b delta) with one b per
    regime, spreads inside their bounds.

    There the Hamiltonian is H_gamma(d) = C e^(b d), with C = a / (b e) at
    gamma = 0 and (a / b)(1 + gamma / b)^(-1 - b / gamma) above, so
    w = e^(b theta) solves the linear ODE -w' = M w (Gueant, Lehalle and
    Fernandez-Tapia, 2013): w(t) = expm(M (T - t)) e^(-b c n^2), where M is
    b times the running reward on the diagonal plus b C_bid above it (a
    bid fill raises n) and b C_ask below it.
    """
    if np.any(spec.generator_Q != 0):
        raise ValueError("the closed form needs regimes that do not switch")
    gamma = spec.risk_aversion_gamma
    levels = spec.inventory_levels()
    out = np.empty((len(times), len(levels), spec.n_regimes))
    for i, regime in enumerate(spec.regimes):
        (a_bid, b), (a_ask, b_ask) = regime.bid_intensity.params, regime.ask_intensity.params
        if b_ask != b:
            raise ValueError("the closed form needs one decay b per regime")
        scale = math.exp(-1.0) if gamma == 0 else (1.0 + gamma / b) ** (-1.0 - b / gamma)
        M = np.diag(b * spec.running_reward(levels.astype(float)))
        M += np.diag(np.full(len(levels) - 1, a_bid * scale), 1)
        M += np.diag(np.full(len(levels) - 1, a_ask * scale), -1)
        w_end = np.exp(-b * spec.terminal_cost(levels))
        for s, t in enumerate(times):
            out[s, :, i] = np.log(expm(M * (spec.horizon_T - t)) @ w_end) / b
    return out


def hamiltonian_closed_form(fam, gamma, d, bounds):
    """Interior-case closed form -lam^2 / (lam' - gamma lam) at the maximizer.

    Only meaningful where the maximizer is interior; used as a cross-check.
    """
    delta = optimal_spread(fam, gamma, d, bounds)
    lam = np.asarray(eval_intensity(fam, delta))
    dlam = np.asarray(eval_derivative(fam, delta))
    out = -lam * lam / (dlam - gamma * lam)
    return float(out) if np.ndim(d) == 0 else out


def _log_slope(fam, x):
    """lam'(x) / lam(x) at one spread, from the family's formula, arranged
    to stay accurate in the tails."""
    if fam.kind == "exponential":
        return -fam.params[1]
    if fam.kind == "logistic":
        a, b, c = fam.params
        if b * x > 0.0:
            return -b / (1.0 + math.exp(-b * x) / c)
        e = c * math.exp(b * x)
        return -b * e / (1.0 + e)
    if fam.kind == "arctan":
        a, b, c = fam.params
        u = c - b * x
        level = math.atan(-1.0 / u) if u < 0.0 else math.pi / 2.0 + math.atan(u)
        return -b / ((1.0 + u * u) * level)
    if fam.kind == "power_law":
        a, b, c, p = fam.params
        return -b * p / (b * x + c)
    raise ValueError(f"no log-slope formula for {fam.kind}")


def optimal_spread_bisection(fam, gamma, d, lo, hi):
    """Maximizer of lam(delta) U_gamma(delta + d) over [lo, hi] at one d.

    Plain scalar bisection on the sign of the first-order condition divided
    by lam U_gamma' > 0,
        1 + (lam'/lam)(delta) (e^{gamma (delta + d)} - 1) / gamma
    (1 + (lam'/lam)(delta) (delta + d) at gamma = 0), down to adjacent
    floats.  An infinite bound is replaced by a bracket end doubled outward
    from -1 or 1.  A different equation from the package's fixed point, so
    the two share no formula.
    """

    def rising(x):
        y = x + d
        q = y if gamma == 0.0 else math.expm1(gamma * y) / gamma
        return 1.0 + _log_slope(fam, x) * q > 0.0

    a = lo if math.isfinite(lo) else -1.0
    b = hi if math.isfinite(hi) else 1.0
    if not math.isfinite(lo):
        while not rising(a):
            a *= 2.0
    elif not rising(a):
        return lo
    if not math.isfinite(hi):
        while rising(b):
            b *= 2.0
    elif rising(b):
        return hi
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return m
        if rising(m):
            a = m
        else:
            b = m


def meets_strong_assumptions(fam, lo, hi):
    """Sampled check of lam' < 0 and lam * lam'' < c (lam')^2 with c < 2, the
    regularity the fixed-point spread needs, on the validity checks' probe
    grid."""
    grid = _probe_grid(fam, lo, hi)
    d1 = np.asarray(eval_derivative(fam, grid))
    if np.any(d1 >= 0.0):
        return False
    d0 = np.asarray(eval_intensity(fam, grid))
    d2 = np.asarray(eval_curvature(fam, grid))
    ratio = d0 * d2 / (d1 * d1)
    return bool(np.all(ratio < 2.0 - 1e-12))


def rhs_loop(spec, levels, panel):
    """The full-information right-hand side with one Hamiltonian call per
    regime and side: the reference for ``hjb_full._rhs``, which makes one
    call per group of its plan (all exponential curves in one)."""
    gamma = spec.risk_aversion_gamma
    bounds = spec.spread_bounds
    base = spec.drift_mu * levels - 0.5 * spec.vol_sigma**2 * levels**2 * (
        spec.running_penalty_zeta + gamma
    )
    out = np.empty_like(panel)
    out[:] = base[:, None]
    out += _coupling(panel, spec.generator_Q, gamma)
    for i, regime in enumerate(spec.regimes):
        d_bid = panel[1:, i] - panel[:-1, i]
        d_ask = panel[:-1, i] - panel[1:, i]
        out[:-1, i] += hamiltonian_value(regime.bid_intensity, gamma, d_bid, bounds)
        out[1:, i] += hamiltonian_value(regime.ask_intensity, gamma, d_ask, bounds)
    return out


def solve_loop(spec, n_steps):
    """``hjb_full.solve_constrained`` with ``rhs_loop`` as the right-hand
    side and the spread tables filled one level, regime and side at a time."""
    levels = spec.inventory_levels().astype(float)
    terminal = np.repeat(-spec.terminal_cost(levels)[:, None], spec.n_regimes, axis=1)
    theta = _march(lambda t, y: rhs_loop(spec, levels, y), terminal, spec.horizon_T, n_steps)
    gamma, bounds = spec.risk_aversion_gamma, spec.spread_bounds
    bid = np.full_like(theta, STUB_SPREAD)
    ask = np.full_like(theta, STUB_SPREAD)
    for s, level in enumerate(theta):
        for i, regime in enumerate(spec.regimes):
            d_bid = level[1:, i] - level[:-1, i]
            d_ask = level[:-1, i] - level[1:, i]
            bid[s, :-1, i] = optimal_spread(regime.bid_intensity, gamma, d_bid, bounds)
            ask[s, 1:, i] = optimal_spread(regime.ask_intensity, gamma, d_ask, bounds)
    time_grid = np.linspace(0.0, spec.horizon_T, n_steps + 1)
    return FullInfoSurface(spec, time_grid, theta, bid, ask)


def policy_loop(surface, t, n, i):
    """The full-information policy with one masked ``optimal_spread`` call
    per regime and side, blocked sides never evaluated: the reference for
    ``hjb_full.policy``, which makes one call per side and plan group."""
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
    return bid, ask


def table_policy_loop(surface, t, n, i):
    """The full-information policy as a read of the stored spread tables,
    one broadcast point (t, n, i) at a time in Python floats: the bracket
    from ``bisect``, the two time levels weighted (1 - w) and w, and a
    blocked side never read.  The reference for ``hjb_full.policy``."""
    times = surface.time_grid.tolist()
    cap = int(surface.spec.inventory_cap_Nstar)
    t, n, i = np.broadcast_arrays(t, n, i)
    bid, ask = np.empty(t.shape), np.empty(t.shape)
    for idx in np.ndindex(t.shape):
        at = min(max(float(t[idx]), times[0]), times[-1])
        s = min(max(bisect.bisect_right(times, at) - 1, 0), len(times) - 2)
        w = (at - times[s]) / (times[s + 1] - times[s])
        row, col = int(n[idx]) + cap, int(i[idx]) - 1

        def read(table):
            return (1 - w) * float(table[s, row, col]) + w * float(table[s + 1, row, col])

        bid[idx] = STUB_SPREAD if row == 2 * cap else read(surface.spread_bid)
        ask[idx] = STUB_SPREAD if row == 0 else read(surface.spread_ask)
    return bid, ask


@dataclass(frozen=True)
class UnconstrainedSolution:
    """Per-regime profile phi_i(t) with theta(t, n, i) = mu n (T - t) + phi_i(t)."""

    spec: object
    time_grid: np.ndarray
    phi: np.ndarray  # shape (len(time_grid), k)

    def phi_at(self, t: float) -> np.ndarray:
        """(phi_1, ..., phi_k) at one time t, linear in t."""
        columns = np.arange(self.phi.shape[1])
        return gather(self.phi[:, None, :], *time_bracket(self.time_grid, t), 0, columns)

    def theta_at(self, t, n, i):
        """theta at broadcast (t, n, i); i is a 1-based regime index and
        scalars give a float."""
        col = _regime_column(self.spec, i)
        phi = gather(self.phi[:, None, :], *time_bracket(self.time_grid, t), 0, col)
        value = self.spec.drift_mu * n * (self.spec.horizon_T - t) + phi
        return float(value) if np.ndim(value) == 0 else value


def solve_unconstrained(spec, n_steps=2000):
    """Backward RK4 for the linear system phi' = -Q phi + b, phi(T) = 0, with
    b_i(t) = -H_bid_i(mu (T - t)) - H_ask_i(-mu (T - t)): the risk-neutral
    value without penalty or terminal cost in the N* -> inf limit.  The
    spec's inventory cap is ignored."""
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

    def b_vec(t):
        horizon = spec.drift_mu * (T - t)
        return np.array(
            [
                -hamiltonian_value(r.bid_intensity, 0.0, horizon, bounds)
                - hamiltonian_value(r.ask_intensity, 0.0, -horizon, bounds)
                for r in spec.regimes
            ]
        )

    def deriv(t, phi):
        # d phi / d tau with tau = T - t reverses the sign of phi'(t)
        return q @ phi - b_vec(t)

    phi = _march(deriv, np.zeros(spec.n_regimes), T, n_steps)
    return UnconstrainedSolution(spec, np.linspace(0.0, T, n_steps + 1), phi)


def comparison_bounds_loop(spec):
    """(K_upper, K_lower) of the comparison sandwich, one inventory and regime
    at a time with scalar Hamiltonians: the reference for
    ``hjb_full.comparison_bounds``."""
    levels = spec.inventory_levels().astype(float)
    gamma = spec.risk_aversion_gamma
    bounds = spec.spread_bounds
    best = 0.0
    for n in levels:
        for regime in spec.regimes:
            val = spec.drift_mu * n - 0.5 * spec.vol_sigma**2 * n**2 * (
                spec.running_penalty_zeta + gamma
            )
            if spec.bid_active(n):
                val += hamiltonian_value(regime.bid_intensity, gamma, 0.0, bounds)
            if spec.ask_active(n):
                val += hamiltonian_value(regime.ask_intensity, gamma, 0.0, bounds)
            best = max(best, abs(val))
    k_lower = float(spec.terminal_cost(spec.inventory_cap_Nstar))
    return best, k_lower


def residual_report(surface):
    """Max ODE residual of a full-information surface at its time-grid
    midpoints (finite-difference check)."""
    plan = _Plan.build(surface.spec)
    worst = 0.0
    tg = surface.time_grid
    for s in range(len(tg) - 1):
        dt = tg[s + 1] - tg[s]
        mid = 0.5 * (surface.theta[s] + surface.theta[s + 1])
        # theta_t + RHS = 0 along t; backward marching stored d theta/d tau = +RHS
        resid = (surface.theta[s + 1] - surface.theta[s]) / dt + _rhs(plan, mid)
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def _grid_csv_loop(surface, headers, axis, third, extra_headers):
    """Per-value loop writer of a surface grid file: the byte-level reference
    for the vectorized codec."""
    buf = io.StringIO()
    for line in format_config(surface.spec).strip().splitlines():
        buf.write(f"# {line}\n")
    for line in headers:
        buf.write(f"# {line}\n")
    for key, val in (extra_headers or {}).items():
        buf.write(f"# {key} = {val}\n")
    buf.write(f"t,n,{axis},theta,spread_bid,spread_ask\n")
    n_star = int(surface.spec.inventory_cap_Nstar)
    fmt = lambda x: format(x, ".17g")
    for s, t in enumerate(surface.time_grid):
        for r in range(2 * n_star + 1):
            for j, x in enumerate(third):
                buf.write(
                    ",".join(
                        [
                            fmt(t),
                            str(r - n_star),
                            x,
                            fmt(surface.theta[s, r, j]),
                            fmt(surface.spread_bid[s, r, j]),
                            fmt(surface.spread_ask[s, r, j]),
                        ]
                    )
                    + "\n"
                )
    return buf.getvalue()


def full_surface_csv_loop(surface, extra_headers=None):
    """Full-information grid file, one node at a time."""
    regimes = [str(i + 1) for i in range(surface.spec.n_regimes)]
    return _grid_csv_loop(surface, [], "i", regimes, extra_headers)


def partial_surface_csv_loop(surface, extra_headers=None):
    """Partial-information grid file with its cfl headers, one node at a time."""
    rep = surface.cfl_report
    headers = [
        f"cfl_max_coeff = {rep.max_coefficient:.17g}",
        f"cfl_min_dt = {rep.min_dt:.17g}",
        f"cfl_max_dt = {rep.max_dt:.17g}",
        f"cfl_n_steps = {rep.n_steps}",
        f"belief_gradient_scale = {surface.belief_gradient_scale:.17g}",
    ]
    beliefs = [format(pi, ".17g") for pi in surface.pi_grid]
    return _grid_csv_loop(surface, headers, "pi", beliefs, extra_headers)


def convergence_sup_loop(surfaces, probe_times):
    """Sup differences of successive ladder surfaces, one scalar ``theta_at``
    call per (inventory, coarse belief node, probe time): the reference for
    the broadcast lookup in ``convergence_report``."""
    diffs = []
    for coarse, fine in zip(surfaces, surfaces[1:]):
        n_star = int(coarse.spec.inventory_cap_Nstar)
        worst = 0.0
        for n in range(-n_star, n_star + 1):
            for pi in coarse.pi_grid:
                for t in probe_times:
                    worst = max(worst, abs(coarse.theta_at(t, n, pi) - fine.theta_at(t, n, pi)))
        diffs.append(worst)
    return tuple(diffs)


def stub_tables(spreads):
    """(bid, ask) tables of every inventory row from ``Stepper.evaluate``'s
    spreads, with the stub sentinel on the blocked sides."""
    shape = (spreads.shape[1] + 1, spreads.shape[2])
    bid, ask = np.full(shape, STUB_SPREAD), np.full(shape, STUB_SPREAD)
    bid[:-1], ask[1:] = spreads
    return bid, ask


def march_levels(spec, m_pi, cfl_safety=0.9):
    """Every level of the partial-information march, with its step rule
    unchanged, from T down to 0: yields (t, theta, bid, ask, coeff), the
    stub-padded spread tables and the CFL coefficient at t.  Only the level
    yielded last is held."""
    stepper = Stepper(spec, m_pi)
    T = spec.horizon_T
    theta, t = stepper.terminal_panel(), T
    while True:
        spreads, rhs, coeff = stepper.evaluate(theta)
        yield (t, theta, *stub_tables(spreads), coeff)
        if not t > 0.0:
            return
        dt = min(cfl_safety / coeff, t)
        theta = theta + dt * rhs
        t = 0.0 if t - dt <= 1e-15 * T else t - dt


def solve_all_levels(spec, m_pi, cfl_safety=0.9):
    """The partial-information march keeping every level: the reference
    for the solver's output time grid, whose levels a lookup on this
    surface must reproduce."""
    times, thetas, bids, asks, coeffs = zip(*march_levels(spec, m_pi, cfl_safety))
    # every level above t = 0 took one step
    dts = [min(cfl_safety / c, t) for t, c in zip(times[:-1], coeffs)]
    report = CflReport(max(coeffs[:-1]), min(dts), max(dts), len(dts))
    return PartialInfoSurface(
        spec, np.array(times[::-1]), np.linspace(0.0, 1.0, m_pi + 1), np.array(thetas[::-1]),
        np.array(bids[::-1]), np.array(asks[::-1]), report,
    )


def evaluate_loop(spec, m_pi, scale, theta):
    """The partial scheme's one-level evaluation, node by node, with the
    exponential curve's closed forms written out: each side quotes
    clip(1/b - adj - d, lo, hi) and fills at a e^{-b delta}, where a and b
    are regime 1's bid curve and m the regime amplitude ratio.  Returns
    (bid, ask, rhs, CFL coefficient) like ``Stepper.evaluate``."""
    a, b = spec.regimes[0].bid_intensity.params
    a2 = spec.regimes[1].bid_intensity.params[0]
    m = a2 / a if a > 0.0 else 1.0
    q11, q21 = spec.generator_Q[0, 0], spec.generator_Q[1, 0]
    lo, hi = spec.spread_bounds
    n_star = int(spec.inventory_cap_Nstar)
    d_pi = 1.0 / m_pi
    bid = np.full(theta.shape, STUB_SPREAD)
    ask = np.full(theta.shape, STUB_SPREAD)
    rhs = np.empty(theta.shape)
    coeff = 0.0

    def after_fill(row, pi):
        # theta at the post-order belief, linear between grid nodes
        x = pi * m_pi
        j = min(int(x), m_pi - 1)
        return (1.0 - (x - j)) * theta[row, j] + (x - j) * theta[row, j + 1]

    for r in range(theta.shape[0]):
        n = r - n_star
        for j in range(m_pi + 1):
            pi = j / m_pi
            m_hat = pi + (1.0 - pi) * m
            w = (m - 1.0) * pi * (1.0 - pi)
            q_hat = q11 * pi + q21 * (1.0 - pi)
            fwd = (theta[r, min(j + 1, m_pi)] - theta[r, min(j + 1, m_pi) - 1]) / d_pi
            bwd = (theta[r, max(j, 1)] - theta[r, max(j, 1) - 1]) / d_pi
            adj = scale * (w / m_hat) * fwd
            value = spec.drift_mu * n - 0.5 * spec.vol_sigma**2 * spec.running_penalty_zeta * n * n
            value += scale * (max(q_hat, 0.0) * fwd + min(q_hat, 0.0) * bwd)
            rates = 0.0
            for table, other in ((bid, r + 1), (ask, r - 1)):
                if not 0 <= other < theta.shape[0]:
                    continue  # the side is blocked at the cap
                d = after_fill(other, pi / m_hat) - theta[r, j]
                delta = min(max(1.0 / b - adj - d, lo), hi)
                table[r, j] = delta
                rate = a * math.exp(-b * delta)
                value += rate * (scale * w * fwd + m_hat * (delta + d))
                rates += rate
            rhs[r, j] = value
            coeff = max(coeff, scale * abs(q_hat) / d_pi + rates * (scale * w / d_pi + m_hat))
    return bid, ask, rhs, coeff


def solve_full_panel(spec, m_pi, belief_gradient_scale=1.0):
    """``hjb_partial.solve`` marching every inventory row -N*..N* whatever
    the drift, with no mirror: the reference that the half-panel march of a
    driftless market must reproduce bit for bit, CFL report included."""
    stepper = Stepper(spec, m_pi, belief_gradient_scale)
    T = spec.horizon_T
    theta = stepper.terminal_panel()
    out_t = output_times(T, m_pi)
    out_theta = np.empty((len(out_t),) + theta.shape)
    out_bid = np.full_like(out_theta, STUB_SPREAD)
    out_ask = np.full_like(out_theta, STUB_SPREAD)
    quoted_bid, quoted_ask = out_bid[:, :-1], out_ask[:, 1:]
    nxt = len(out_t) - 1
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
        while nxt >= 0 and out_t[nxt] >= t:
            w = (out_t[nxt] - t) / (t_up - t)
            out_theta[nxt] = (1 - w) * theta + w * theta_up
            quoted_bid[nxt], quoted_ask[nxt] = (1 - w) * spreads + w * spreads_up
            nxt -= 1
    report = CflReport(max_coeff, min_dt, max_dt, n_steps)
    return PartialInfoSurface(
        spec, out_t, stepper.pi_grid, out_theta, out_bid, out_ask, report, stepper.scale
    )
