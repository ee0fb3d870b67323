"""Exact regime filter driven by the market maker's observables.

The belief about the hidden regime lives on the open probability simplex and
evolves as a piecewise-deterministic process: a smooth drift between orders
(transition-rate transport plus the no-order information), and a
multiplicative Bayes update at each order.  The Monte Carlo engine
integrates the drift with ``_rk4_step`` and applies ``jump_update`` at its
fills; ``attractor`` locates the quiet-period equilibrium belief of the
two-regime reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .intensity import eval_intensity, is_stub, optimal_spread
from .model import ModelSpec, two_regime_reduction

# Every belief coordinate is kept at or above this floor, so no regime ever
# becomes impossible even when its evidence underflows.  The complement of a
# coordinate below about 1e-17 rounds to exactly 1.0, so a coordinate may be 1.
_FLOOR = 1e-300


@dataclass(frozen=True)
class ObservableRates:
    """Belief-weighted order-arrival rates seen by the market maker: floats
    for one belief, (P,) arrays for a batch."""

    bid_rate: float | np.ndarray
    ask_rate: float | np.ndarray
    bid_components: np.ndarray  # per-regime lam_i(bid spread), (..., k)
    ask_components: np.ndarray

    @property
    def total(self):
        return self.bid_rate + self.ask_rate


def _components(spec: ModelSpec, side: str, delta, on=True) -> np.ndarray:
    """Per-regime intensities lam_i(delta), shaped delta's shape + (k,).

    Stub spreads and a blocked side (``on``, the side's inventory gate, a
    bool or a per-path bool array, false) give zero: both enter as one 0/1
    factor.
    """
    delta = np.asarray(delta, dtype=float)
    stub = is_stub(delta)
    safe = np.where(stub, 0.0, delta)
    lam = np.empty(delta.shape + (spec.n_regimes,))
    for i, r in enumerate(spec.regimes):
        lam[..., i] = eval_intensity(r.bid_intensity if side == "bid" else r.ask_intensity, safe)
    return lam * (~stub & on)[..., None]


def observable_rates(pi: np.ndarray, spreads, n, spec: ModelSpec) -> ObservableRates:
    """Average regime intensities under the belief, zeroed on a blocked side.

    Broadcasts over paths: ``pi`` is one belief (k,) or a (P, k) batch, with
    spreads and ``n`` scalars or (P,) arrays.
    """
    bid = _components(spec, "bid", spreads[0], spec.bid_active(n))
    ask = _components(spec, "ask", spreads[1], spec.ask_active(n))
    # row-wise belief averages: (P,) for a batch, a float for one belief
    return ObservableRates(
        bid_rate=np.einsum("...k,...k->...", pi, bid)[()],
        ask_rate=np.einsum("...k,...k->...", pi, ask)[()],
        bid_components=bid,
        ask_components=ask,
    )


def drift(pi: np.ndarray, spreads, n, spec: ModelSpec) -> np.ndarray:
    """Between-order belief velocity; tangent to the simplex (sums to zero).

    Coordinate i moves by generator transport plus pi_i times the gap between
    the observable rate and regime i's own rate, summed over active sides (a
    blocked side's rates are zero).  Broadcasts like ``observable_rates``.
    """
    rates = observable_rates(pi, spreads, n, spec)
    out = pi @ spec.generator_Q
    out = out + pi * (rates.bid_rate[..., None] - rates.bid_components)
    out = out + pi * (rates.ask_rate[..., None] - rates.ask_components)
    return out


def jump_update(pi: np.ndarray, side: str, spread, spec: ModelSpec) -> np.ndarray:
    """Bayes update at an order: reweight by that side's regime intensities.

    Broadcasts over a (P, k) batch of beliefs with per-path spreads.  A
    coordinate the update pushes below the simplex floor is raised to it.
    """
    raw = pi * _components(spec, side, spread)
    total = raw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise NumericsError("jump update with zero observable intensity")
    return np.maximum(raw / total, _FLOOR)


def _rk4_step(pi: np.ndarray, t, h, deriv) -> tuple[np.ndarray, int]:
    """One classical RK4 step of the belief: a single belief (k,) with scalar
    t and h, or a batch (P, k) with per-path t and h.

    Returns the renormalized belief and the number of coordinates clamped at
    the simplex floor.
    """
    hc = np.asarray(h)[..., None]
    k1 = deriv(t, pi)
    k2 = deriv(t + 0.5 * h, pi + 0.5 * hc * k1)
    k3 = deriv(t + 0.5 * h, pi + 0.5 * hc * k2)
    k4 = deriv(t + h, pi + hc * k3)
    out = pi + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # renormalize: the drift preserves the coordinate sum only to integrator order
    clamped = int(np.count_nonzero(out < _FLOOR))
    if clamped:
        out = np.maximum(out, _FLOOR)
    # a sum just above one can divide a floored coordinate below the floor
    return np.maximum(out / out.sum(axis=-1, keepdims=True), _FLOOR), clamped


def _hermite(y0, f0, y1, f1, h, theta):
    """Dense output inside a belief step of length ``h``: the cubic Hermite
    interpolant of the end beliefs ``y0``, ``y1`` and their drifts ``f0``,
    ``f1`` at fraction ``theta`` of the step, floored like the steps."""
    t2, t3 = theta * theta, theta * theta * theta
    out = (2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (3.0 * t2 - 2.0 * t3) * y1
    out = out + h * ((t3 - 2.0 * t2 + theta) * f0 + (t3 - t2) * f1)
    return np.maximum(out, _FLOOR)


def attractor(spec: ModelSpec, beta: int) -> float:
    """Quiet-period equilibrium belief of the two-regime reduction.

    Root in (0, 1) of the belief drift q_hat(pi) + c pi (1 - pi), with
    c = beta lam(delta_T) (m - 1), once the quotes have settled at the
    solver's terminal spread delta_T (1/b within the spread bounds) on
    ``beta`` active sides; requires gamma = 0 and no terminal cost.  The
    drift is q21 > 0 at pi = 0 and q11 < 0 at pi = 1, so the checks on q21
    and q11 leave exactly one simple, stable root in (0, 1), returned in
    closed form.
    """
    if beta not in (1, 2):
        raise ValueError("beta must be 1 (one active side) or 2 (both sides)")
    if spec.terminal_cost_c != 0.0:
        raise NumericsError(
            "attractor analysis requires zero terminal cost "
            "(the settled spread value 1/b assumes c = 0)"
        )
    red = two_regime_reduction(spec)
    if red.q21 <= 0.0:
        raise NumericsError("no attractor root: transition rate into regime 1 must be positive")
    if red.q11 >= 0.0:
        raise NumericsError("no attractor root: q11 must be negative")

    settled = optimal_spread(red.lam, 0.0, 0.0, spec.spread_bounds)
    c = beta * eval_intensity(red.lam, settled) * (red.m - 1.0)
    # c pi^2 - p pi - q21 = 0 has roots of opposite signs; its positive root,
    # without cancellation for either sign of p (c = 0 gives q21 / (q21 - q11))
    p = red.q11 - red.q21 + c
    s = math.sqrt(p * p + 4.0 * c * red.q21)
    return 2.0 * red.q21 / (s - p) if p < 0.0 else (p + s) / (2.0 * c)
