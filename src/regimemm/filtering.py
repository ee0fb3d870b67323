"""Exact regime filter driven by the market maker's observables.

The belief about the hidden regime lives on the open probability simplex and
evolves as a piecewise-deterministic process: a smooth drift between orders
(transition-rate transport plus the no-order information), and a
multiplicative Bayes update at each order.  ``evolve`` integrates the drift
with classical RK4 and applies the jump update at supplied event times;
``attractor`` locates the quiet-period equilibrium belief of the two-regime
reduction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .intensity import eval_intensity, is_stub
from .model import ModelSpec, two_regime_reduction

logger = logging.getLogger(__name__)

# Every belief coordinate is kept at or above this floor, so no regime ever
# becomes impossible even when its evidence underflows.  The complement of a
# coordinate below about 1e-17 rounds to exactly 1.0, so a coordinate may be 1.
_FLOOR = 1e-300

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class FilterState:
    """Belief over regimes: coordinates of at least ``_FLOOR`` summing to one.

    ``probs`` is one belief (k,) or a batch of per-path beliefs (P, k).
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def check(self, atol: float = 1e-10) -> None:
        if np.any(np.abs(self.probs.sum(axis=-1) - 1.0) > atol):
            raise ValueError("belief does not sum to 1")
        if not np.all(self.probs >= _FLOOR):
            raise ValueError("belief coordinate below the simplex floor")


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


def observable_rates(state: FilterState, spreads, n, spec: ModelSpec) -> ObservableRates:
    """Average regime intensities under the belief, zeroed on a blocked side.

    Broadcasts over paths: ``state`` may hold a (P, k) batch, with spreads
    and ``n`` scalars or (P,) arrays.
    """
    bid = _components(spec, "bid", spreads[0], spec.bid_active(n))
    ask = _components(spec, "ask", spreads[1], spec.ask_active(n))
    # row-wise belief averages: (P,) for a batch, a float for one belief
    return ObservableRates(
        bid_rate=np.einsum("...k,...k->...", state.probs, bid)[()],
        ask_rate=np.einsum("...k,...k->...", state.probs, ask)[()],
        bid_components=bid,
        ask_components=ask,
    )


def drift(state: FilterState, spreads, n, spec: ModelSpec) -> np.ndarray:
    """Between-order belief velocity; tangent to the simplex (sums to zero).

    Coordinate i moves by generator transport plus pi_i times the gap between
    the observable rate and regime i's own rate, summed over active sides (a
    blocked side's rates are zero).  Broadcasts like ``observable_rates``.
    """
    pi = state.probs
    rates = observable_rates(state, spreads, n, spec)
    out = pi @ spec.generator_Q
    out = out + pi * (rates.bid_rate[..., None] - rates.bid_components)
    out = out + pi * (rates.ask_rate[..., None] - rates.ask_components)
    return out


def jump_update(state: FilterState, side: str, spread, spec: ModelSpec) -> FilterState:
    """Bayes update at an order: reweight by that side's regime intensities.

    Broadcasts over a (P, k) batch of beliefs with per-path spreads.  A
    coordinate the update pushes below the simplex floor is raised to it.
    """
    raw = state.probs * _components(spec, side, spread)
    total = raw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise NumericsError("jump update with zero observable intensity")
    return FilterState(np.maximum(raw / total, _FLOOR))


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


@dataclass
class FilterTrajectory:
    """Recorded belief path: sample times, beliefs, and event markers."""

    times: list[float] = field(default_factory=list)
    probs: list[np.ndarray] = field(default_factory=list)
    event_flags: list[int] = field(default_factory=list)
    sides: list[str] = field(default_factory=list)

    def append(self, t: float, pi: np.ndarray, event: int = 0, side: str = "") -> None:
        self.times.append(t)
        self.probs.append(np.array(pi))
        self.event_flags.append(event)
        self.sides.append(side)

    @property
    def final(self) -> FilterState:
        return FilterState(self.probs[-1])

    def to_csv(self) -> str:
        k = len(self.probs[0])
        header = "t," + ",".join(f"pi{i + 1}" for i in range(k)) + ",event_flag,side"
        rows = [header]
        for t, pi, ev, side in zip(self.times, self.probs, self.event_flags, self.sides):
            cols = [format(t, ".17g")] + [format(p, ".17g") for p in pi]
            rows.append(",".join(cols + [str(ev), side]))
        return "\n".join(rows) + "\n"


def evolve(
    state: FilterState,
    policy,
    events: list[tuple[float, str]],
    spec: ModelSpec,
    *,
    t_end: float | None = None,
    step: float = DEFAULT_STEP,
    record_every: int = 1,
) -> FilterTrajectory:
    """Integrate the belief from 0 to t_end applying order events on the way.

    ``policy(t, n, probs) -> (bid_spread, ask_spread)`` supplies the quotes
    that shape both the drift and the jump updates.  Events are (time, side)
    pairs, sorted, with side in {'bid', 'ask'}; inventory is tracked from the
    spec's initial value so the side gates stay consistent.  Between events
    the drift is integrated with RK4 steps of ``min(step, gap/10)``.
    """
    t_end = spec.horizon_T if t_end is None else t_end
    if any(e[0] < 0.0 or e[0] > t_end for e in events):
        raise ValueError("event times must lie within [0, t_end]")
    if any(events[i][0] > events[i + 1][0] for i in range(len(events) - 1)):
        raise ValueError("event times must be sorted")

    pi = np.array(state.probs, dtype=float)
    n = spec.initial_inventory_n0
    traj = FilterTrajectory()
    t = 0.0
    traj.append(t, pi)
    clamps = 0

    def deriv(tau, p):
        spreads = policy(tau, n, p)
        return drift(FilterState(p), spreads, n, spec)

    segments = [(e[0], e[1]) for e in events] + [(t_end, "")]
    for t_next, side in segments:
        gap = t_next - t
        if gap > 0.0:
            n_steps = max(1, int(math.ceil(gap / min(step, gap / 10.0) - 1e-12)))
            h = gap / n_steps
            if h <= 0.0 or not math.isfinite(h):
                raise NumericsError("filter step size underflow")
            for s in range(n_steps):
                pi, clamped = _rk4_step(pi, t + s * h, h, deriv)
                clamps += clamped
                t_here = t_next if s == n_steps - 1 else t + (s + 1) * h
                if (s + 1) % record_every == 0 or s == n_steps - 1:
                    traj.append(t_here, pi)
            t = t_next
        if side:
            spreads = policy(t, n, pi)
            delta = spreads[0] if side == "bid" else spreads[1]
            active = spec.bid_active(n) if side == "bid" else spec.ask_active(n)
            if not active:
                raise ValueError(f"{side} event at t={t} on a blocked side")
            pi = jump_update(FilterState(pi), side, delta, spec).probs
            n = n + 1 if side == "bid" else n - 1
            traj.append(t, pi, event=1, side=side)
    if clamps:
        logger.warning("belief clamped at the simplex floor %d times", clamps)
    return traj


def constant_spread_policy(delta_bid: float, delta_ask: float):
    def policy(t, n, probs):
        return (delta_bid, delta_ask)

    return policy


def attractor(spec: ModelSpec, beta: int) -> float:
    """Quiet-period equilibrium belief of the two-regime reduction.

    Root in (0, 1) of q_hat(pi) + w(pi) (a/e) beta, the belief drift when the
    quoted spreads have settled at the risk-neutral terminal value 1/b with
    ``beta`` active sides; requires gamma = 0 and no terminal cost.  The root
    is located by bisection to 1e-10 and certified stable (negative slope).
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

    rate = red.a * math.exp(-1.0) * beta

    def g(pi):
        return red.q_hat(pi) + red.w(pi) * rate

    lo, hi = 0.0, 1.0
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise NumericsError("no attractor root bracketed in (0, 1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    root = 0.5 * (lo + hi)
    slope = (g(root + 1e-7) - g(root - 1e-7)) / 2e-7
    if slope >= 0.0:
        raise NumericsError("equilibrium belief is not stable (non-negative drift slope)")
    return root
