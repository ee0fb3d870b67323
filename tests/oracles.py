"""Independent reference implementations used by the test suites.

Everything here is deliberately written from scratch (plain loops, scipy
building blocks) and shares no code with the package internals it checks.
"""

import io
import math

import numpy as np
from scipy.linalg import expm

from regimemm.intensity import eval_derivative, eval_intensity, optimal_spread
from regimemm.model import format_config


def bayes_filter(spec, delta_bid, delta_ask, horizon, dt, event_times):
    """Discrete-time Bayes recursion on a uniform dt grid.

    Prediction: transpose action of exp(Q dt).  Correction: per-regime
    likelihoods exp(-lam_i dt) without an event, lam_i dt with one.  Events
    are snapped to the nearest grid step.  Returns (times, beliefs).
    """
    k = spec.n_regimes
    trans = expm(spec.generator_Q * dt).T
    lam = np.zeros((k, 2))
    for i, regime in enumerate(spec.regimes):
        lam[i, 0] = eval_intensity(regime.bid_intensity, delta_bid)
        lam[i, 1] = eval_intensity(regime.ask_intensity, delta_ask)
    steps = int(round(horizon / dt))
    event_steps = {int(round(t / dt)): side for t, side in event_times}
    pi = spec.initial_filter_mu0.copy()
    times = [0.0]
    path = [pi.copy()]
    n = spec.initial_inventory_n0
    for s in range(1, steps + 1):
        rate = lam[:, 0] * spec.bid_active(n) + lam[:, 1] * spec.ask_active(n)
        pi = trans @ pi
        if s in event_steps:
            side = event_steps[s]
            col = 0 if side == "bid" else 1
            pi = pi * (lam[:, col] * dt)
            n += 1 if side == "bid" else -1
        else:
            pi = pi * np.exp(-rate * dt)
        pi = pi / pi.sum()
        times.append(s * dt)
        path.append(pi.copy())
    return np.array(times), np.array(path)


def one_regime_backward_ode(spec, n_steps):
    """Plain-loop RK4 for the single-regime system with explicit exponential
    Hamiltonians; compares against the vectorized solver."""
    a, b = spec.regimes[0].bid_intensity.params
    lo, hi = spec.spread_lo, spec.spread_hi
    mu, sig = spec.drift_mu, spec.vol_sigma
    zeta, c = spec.running_penalty_zeta, spec.terminal_cost_c
    n_star = int(spec.inventory_cap_Nstar)
    ns = list(range(-n_star, n_star + 1))

    def ham(d):
        delta = min(max(1.0 / b - d, lo), hi)
        return a * math.exp(-b * delta) * (delta + d)

    def rhs(th):
        out = []
        for r, n in enumerate(ns):
            val = mu * n - 0.5 * sig * sig * n * n * zeta
            if n < n_star:
                val += ham(th[r + 1] - th[r])
            if -n < n_star:
                val += ham(th[r - 1] - th[r])
            out.append(val)
        return out

    h = spec.horizon_T / n_steps
    th = [-c * n * n for n in ns]
    for _ in range(n_steps):
        k1 = rhs(th)
        k2 = rhs([y + 0.5 * h * v for y, v in zip(th, k1)])
        k3 = rhs([y + 0.5 * h * v for y, v in zip(th, k2)])
        k4 = rhs([y + h * v for y, v in zip(th, k3)])
        th = [
            y + (h / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
            for y, v1, v2, v3, v4 in zip(th, k1, k2, k3, k4)
        ]
    return np.array(th)


def hamiltonian_closed_form(fam, gamma, d, bounds):
    """Interior-case closed form -lam^2 / (lam' - gamma lam) at the maximizer.

    Only meaningful where the maximizer is interior; used as a cross-check.
    """
    delta = optimal_spread(fam, gamma, d, bounds)
    lam = np.asarray(eval_intensity(fam, delta))
    dlam = np.asarray(eval_derivative(fam, delta))
    out = -lam * lam / (dlam - gamma * lam)
    return float(out) if np.ndim(d) == 0 else out


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
