"""Thinning-based joint simulation of orders, inventory, cash, and filter.

One lockstep engine simulates a batch of paths.  Orders are generated
exactly by thinning (Lewis & Shedler, 1979): candidate times arrive from a
dominating homogeneous rate (per-side maxima of the regime intensities at
the policy's minimum quotes, switched with the inventory gates), and a
candidate becomes a fill with probability (arrival rate)/(bound).  The
arrival rate is the belief-averaged intensity, or with ``regime_true`` the
intensity of the hidden regime, whose chain each path draws from its own
substream.  The belief is a piecewise-deterministic process: between
fills it follows its no-order ODE, integrated with the filter's RK4 step,
and at fills it takes the multiplicative Bayes update.  The belief drift,
the arrival rates and the Bayes update are ``filtering``'s ``drift``,
``observable_rates`` and ``jump_update`` called on the batch, so the engine
holds no copy of the filter.  The P&L needs the reference price only at
fills and at T, so it is drawn only there, as exact Gaussian increments
from its last draw; a recorded path's report rows get their prices
afterwards, as Brownian bridges between those draws, so the penalized P&L
does not depend on how densely the path is recorded.

Every draw is a word of the path's keyed counter-based streams
(``rng.Substream``): candidate gaps, acceptance and side draws from its
events substream, price increments and bridges from its price substream,
the hidden chain from its regime substream.  Each stage, from the
candidate clocks to the cash and inventory updates, is one array operation
over the paths that take part in it; only building the recorded paths'
rows loops over paths.

The engine is event driven.  Every path stops only at its own events: its
nodes ``k * h_target``, its thinning candidates and T.  No gap exceeds
``h_target``, so each stop is one RK4 step, and a path's result does not
depend on the other paths in its batch, up to vectorized-math rounding.
Recorded rows at the reporting times take their belief from the cubic
Hermite dense output of the step that spans them (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6), so recording moves no node:
``simulate_path`` and ``simulate_with_regime`` are one-path runs of the
engine, and ``monte_carlo`` records its first paths without changing any
P&L.  Paths run in blocks of ``_CHUNK``, so memory does not grow with the
path count beyond the per-path results.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import hjb_full, hjb_partial
from .errors import NumericsError, UnsupportedConfigError
from .filtering import _FLOOR, _hermite, _rk4_step, drift, observable_rates
from .filtering import jump_update as _filter_jump
from .grid import check_belief, check_count
from .intensity import STUB_SPREAD, eval_intensity, is_stub
from .model import ModelSpec, check_generator, check_horizon
from .rng import EVENTS, PRICES, REGIME, Substream

logger = logging.getLogger(__name__)

DEFAULT_REPORT_POINTS = 500
# The belief step: on table1 under the partial policy it keeps every path's
# fill counts, its P&L within 1e-10 and its belief within 2e-7 of h = 1e-4.
DEFAULT_FILTER_STEP = 5e-3
_BOUND_SLACK = 1.0 + 1e-9
_CHUNK = 4096  # paths per lockstep block
# RK4 is stable for h z on [-2.785, 0] of the real axis
_RK4_REAL_LIMIT = 2.785
_HIST_BINS = 30  # bins of MonteCarloSummary's P&L histogram


# -- feedback policies ---------------------------------------------------------


class Policy:
    """Feedback quote map.  ``quotes_batch(t, n, pi1, y)`` returns (bid, ask)
    spread arrays, with the stub sentinel on blocked sides, at per-path
    times, inventories and beliefs in regime 1; ``y`` holds the 0-based
    hidden regimes in regime-true runs and is None otherwise.  The surface
    policies delegate to their solver's ``policy``, which interpolates the
    stored spread tables: the engine quotes from the lookup the solver
    reports.  ``min_spreads`` supplies the lower bounds behind the thinning
    dominating rate, for a surface policy its tables' smallest spreads."""

    def quotes_batch(self, t: np.ndarray, n: np.ndarray, pi1: np.ndarray, y=None):
        raise NotImplementedError

    def quotes(self, t: float, n: int, pi1: float, y: int | None = None) -> tuple[float, float]:
        """Quotes at one state: ``quotes_batch`` on a batch of one."""
        bid, ask = self.quotes_batch(
            np.array([float(t)]), np.array([n]), np.array([pi1]), None if y is None else np.array([y])
        )
        return float(bid[0]), float(ask[0])

    def min_spreads(self) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSpreadPolicy(Policy):
    """Constant quotes on both sides (the gates still block at the caps)."""

    delta_bid: float
    delta_ask: float

    def quotes_batch(self, t, n, pi1, y=None):
        return np.full_like(t, self.delta_bid), np.full_like(t, self.delta_ask)

    def min_spreads(self):
        return self.delta_bid, self.delta_ask


class _SurfacePolicy(Policy):
    """Quotes read from a solved surface; the thinning bounds are the
    smallest spreads its tables quote on each side."""

    def __init__(self, surface):
        self.surface = surface
        bid = surface.spread_bid
        ask = surface.spread_ask
        self._min_bid = float(bid[:, :-1, :].min()) if bid.shape[1] > 1 else STUB_SPREAD
        self._min_ask = float(ask[:, 1:, :].min()) if ask.shape[1] > 1 else STUB_SPREAD

    def min_spreads(self):
        return self._min_bid, self._min_ask


class PartialInfoPolicy(_SurfacePolicy):
    """Bilinear lookup into a solved partial-information surface."""

    surface: hjb_partial.PartialInfoSurface

    def quotes_batch(self, t, n, pi1, y=None):
        return hjb_partial.policy(self.surface, t, n, pi1)


class FullInfoPolicy(_SurfacePolicy):
    """Regime-feedback quotes; usable only in regime-true simulations."""

    surface: hjb_full.FullInfoSurface

    def quotes_batch(self, t, n, pi1, y=None):
        if y is None:
            raise NumericsError(
                "full-information policy needs the regime; simulate with regime_true"
            )
        check_belief(pi1)
        return hjb_full.policy(self.surface, t, n, y + 1)


# -- records ---------------------------------------------------------------------


@dataclass(frozen=True)
class Fill:
    time: float
    side: str  # 'bid' (we buy) or 'ask' (we sell)
    spread: float
    price: float  # reference price at the fill


@dataclass
class PathRecord:
    """One simulated trajectory plus its terminal accounting."""

    seed: int
    path_index: int
    fills: list[Fill]
    times: np.ndarray
    price: np.ndarray
    inventory: np.ndarray
    cash: np.ndarray
    probs: np.ndarray  # (len(times), k)
    spread_bid: np.ndarray
    spread_ask: np.ndarray
    event_side: list[str]
    n_final: int
    x_final: float
    s_final: float
    inventory_integral: float
    pnl_penalized: float

    @property
    def fills_bid(self) -> int:
        return sum(1 for f in self.fills if f.side == "bid")

    @property
    def fills_ask(self) -> int:
        return sum(1 for f in self.fills if f.side == "ask")

    def to_csv(self) -> str:
        rows = ["t,S,N,X,pi1,spread_bid,spread_ask,event_side"]
        fmt = lambda v: format(v, ".17g")
        for i in range(len(self.times)):
            rows.append(
                ",".join(
                    [
                        fmt(self.times[i]),
                        fmt(self.price[i]),
                        str(int(self.inventory[i])),
                        fmt(self.cash[i]),
                        fmt(self.probs[i, 0]),
                        fmt(self.spread_bid[i]),
                        fmt(self.spread_ask[i]),
                        self.event_side[i],
                    ]
                )
            )
        return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class MonteCarloSummary:
    paths: int
    mean_pnl: float
    stderr: float
    mean_fills_bid: float
    mean_fills_ask: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    pnls: np.ndarray
    fills_bid_paths: np.ndarray
    fills_ask_paths: np.ndarray
    # run counters: lockstep iterations summed over blocks, and summed over
    # paths belief RK4 steps, thinning candidates stopped at and belief
    # coordinates clamped at the simplex floor
    iterations: int
    rk4_steps: int
    candidates: int
    clamps: int
    records: tuple[PathRecord, ...] = ()  # the first export_paths paths

    def to_text(self) -> str:
        lines = [
            f"mean_pnl = {self.mean_pnl:.17g}",
            f"stderr = {self.stderr:.17g}",
            f"paths = {self.paths}",
            f"fills_bid = {self.mean_fills_bid:.17g}",
            f"fills_ask = {self.mean_fills_ask:.17g}",
            "hist_edges = " + " ".join(format(v, ".17g") for v in self.hist_edges),
            "hist_counts = " + " ".join(str(int(v)) for v in self.hist_counts),
            f"iterations = {self.iterations}",
            f"rk4_steps = {self.rk4_steps}",
            f"candidates = {self.candidates}",
            f"clamps = {self.clamps}",
        ]
        return "\n".join(lines) + "\n"


# -- shared primitives ------------------------------------------------------------


def _dominating_rates(spec: ModelSpec, policy: Policy) -> tuple[float, float]:
    """Per-side dominating rates: max over regimes at the policy's minimum quote."""
    out = []
    for side, dmin in zip(("bid", "ask"), policy.min_spreads()):
        if is_stub(dmin):
            out.append(0.0)  # side never quoted
            continue
        if not math.isfinite(dmin):
            raise NumericsError(
                "policy must provide a finite minimum spread for the thinning bound"
            )
        fams = [r.bid_intensity if side == "bid" else r.ask_intensity for r in spec.regimes]
        out.append(max(float(eval_intensity(f, dmin)) for f in fams))
    return out[0], out[1]


def _batch_advance(spec, velocity, rows, pi, t0, t1, n):
    """One RK4 step of the belief of every path from its t0 to its t1.

    The engine stops each path only at its own belief-step nodes, thinning
    candidates and T, so no gap exceeds the node spacing and one step spans
    it; a path's nodes depend only on its own streams, never on the batch or
    on what is recorded.  ``velocity(rows, t, n, pi)`` is the belief drift of
    the batch rows ``rows`` at RK4 stage states.  Returns the beliefs, the
    drift at each step's start (its first RK4 stage; NaN on rows that take
    no step, and None when none does), the number of steps taken and the
    number of coordinates clamped at the simplex floor.
    """
    go = np.flatnonzero(t1 > t0)
    if spec.n_regimes == 1 or len(go) == 0:
        return pi, None, 0, 0  # a single regime has a constant, trivial belief
    sub_rows, sub_n = rows[go], n[go]
    deriv = lambda t, p: velocity(sub_rows, t, sub_n, p)
    k1 = deriv(t0[go], pi[go])
    start = np.full_like(pi, np.nan)
    start[go] = k1
    pi = pi.copy()
    pi[go], clamped = _rk4_step(pi[go], t0[go], (t1 - t0)[go], deriv, k1)
    return pi, start, len(go), clamped


def _bridge(spec: ModelSpec, known_t, known_s, times, z):
    """Reference prices at ``times``, each inside [known_t[0], known_t[-1]),
    drawn exactly given the prices ``known_s`` at the increasing
    ``known_t``: a Brownian bridge inside each interval between known
    points.  ``z`` holds one standard normal per entry of ``known_t[1:]``
    and of ``times``.

    A Brownian path W is drawn at all the times, and each interval's piece
    is pinned to its known end points; the drift cancels in the bridge."""
    at = np.concatenate([known_t[1:], times])
    order = np.argsort(at, kind="stable")  # a known point first among equal times
    w = np.empty(len(at))
    w[order] = np.cumsum(spec.vol_sigma * np.sqrt(np.diff(at[order], prepend=known_t[0])) * z)
    w_known = np.concatenate([[0.0], w[: len(known_t) - 1]])
    seg = np.searchsorted(known_t, times, side="right") - 1
    a, b = known_t[seg], known_t[seg + 1]
    rise = (w_known[seg + 1] - w_known[seg]) - (known_s[seg + 1] - known_s[seg])
    return known_s[seg] + (w[len(known_t) - 1 :] - w_known[seg]) - (times - a) / (b - a) * rise


def _penalized_pnl(spec: ModelSpec, x_final, s_final, n_final, inventory_integral):
    return (
        x_final
        + s_final * n_final
        - spec.terminal_cost(n_final)
        - 0.5 * spec.vol_sigma**2 * spec.running_penalty_zeta * inventory_integral
    )


def _regime_chains(spec: ModelSpec, draws: Substream):
    """The hidden chains of every row of ``draws`` on [0, T]: each starts
    from the prior and then takes exponential holding times from the
    generator.  Returns switch times, padded with +inf, and the 0-based
    states they switch to, both shaped (rows, most switches + 1).

    A row draws a uniform for its initial state, then per holding time an
    exponential and, if the switch falls before T, a uniform for the state
    it switches to."""
    q, k, T = spec.generator_Q, spec.n_regimes, spec.horizon_T
    rate = -np.diag(q)
    # the states each state can switch to, with their cumulative probabilities
    others = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=int).reshape(k, k - 1)
    cum = np.cumsum(q[np.arange(k)[:, None], others] / np.where(rate > 0.0, rate, 1.0)[:, None], axis=1)
    rows = np.arange(len(draws))
    y = np.minimum(np.searchsorted(np.cumsum(spec.initial_filter_mu0), draws.uniform(rows)), k - 1)
    t = np.zeros(len(rows))
    switches, states = [t.copy()], [y.copy()]
    live = rows[rate[y] > 0.0]
    while len(live):
        t_next = t[live] + draws.exponential(live) / rate[y[live]]
        live = live[t_next < T]
        t[live] = t_next[t_next < T]
        u = draws.uniform(live)
        nxt = others[y[live], np.minimum(np.sum(cum[y[live]] < u[:, None], axis=1), k - 2)]
        y[live] = nxt
        column = np.full(len(rows), math.inf)
        column[live] = t[live]
        switches.append(column)
        states.append(y.copy())
        live = live[rate[nxt] > 0.0]
    return np.stack(switches, axis=1), np.stack(states, axis=1)


def draw_regime_path(spec: ModelSpec, regime_rng: Substream) -> list[tuple[float, int]]:
    """The hidden chain on [0, T] drawn from the one-path substream
    ``regime_rng``, as (switch time, 0-based state) pairs from time 0: the
    chain that path's regime-true run follows when ``regime_rng`` is its
    ``REGIME`` substream."""
    switch, state = _regime_chains(spec, regime_rng)
    finite = np.isfinite(switch[0])
    return list(zip(switch[0, finite].tolist(), state[0, finite].tolist()))


def _regime_clock(spec: ModelSpec, draws: Substream):
    """Vectorized lookup ``(rows, t) -> 0-based regime`` of the block's
    hidden chains, drawn from the rows' regime substream."""
    switch, state = _regime_chains(spec, draws)

    def at(rows, t):
        return state[rows, np.sum(switch[rows] <= t[:, None], axis=1) - 1]

    return at


# -- the engine ---------------------------------------------------------------------

_SIDES = ("", "bid", "ask")  # event_side of a recorded row by its side code


def _lockstep(spec, policy, seed, path_ids, report_points, h_target, regime_true, record):
    """Lockstep thinning over one block of ``path_ids``; the first ``record``
    of them are recorded.

    Each iteration moves every active path to its next stop: its next node
    ``k * h_target``, its next thinning candidate, or T.  Every stage is an
    array operation over the paths that take part in it.  Recorded rows at
    report times take their belief from the dense output of the step that
    spans them, so recording moves no node, and their prices are bridged
    after the run.  Returns per-path penalized P&L, bid and ask fill
    counts, the records and the run counters.
    """
    n_paths = len(path_ids)
    T = spec.horizon_T
    lam_bid_max, lam_ask_max = _dominating_rates(spec, policy)
    events = Substream(seed, path_ids, EVENTS)
    prices = Substream(seed, path_ids, PRICES)
    report_t = np.arange(1, report_points + 1) * (T / report_points)
    # a single regime's belief is constant, so it needs no nodes
    node_dt = h_target if spec.n_regimes > 1 else math.inf
    if regime_true:
        regime_at = _regime_clock(spec, Substream(seed, path_ids, REGIME))
    else:
        regime_at = lambda rows, t: None

    def thinning_bound(rows):  # summed dominating rates of the rows' open sides
        return lam_bid_max * spec.bid_active(n[rows]) + lam_ask_max * spec.ask_active(n[rows])

    def velocity(sel, t_sel, n_sel, pi_sel):
        spreads = policy.quotes_batch(t_sel, n_sel, pi_sel[:, 0], regime_at(sel, t_sel))
        return drift(pi_sel, spreads, n_sel, spec)

    t = np.zeros(n_paths)
    n = np.full(n_paths, spec.initial_inventory_n0, dtype=int)
    x = np.full(n_paths, float(spec.initial_cash_x0))
    pi = np.repeat(spec.initial_filter_mu0[None, :], n_paths, axis=0)
    inv_integral = np.zeros(n_paths)
    fills_b = np.zeros(n_paths, dtype=int)
    fills_a = np.zeros(n_paths, dtype=int)
    next_node = np.ones(n_paths, dtype=int)
    next_candidate = np.full(n_paths, math.nan)
    active = np.ones(n_paths, dtype=bool)
    # the price is drawn only at fills and at T, as exact Gaussian increments
    # from its last draw
    s_last = np.full(n_paths, float(spec.initial_price_s0))
    t_last = np.zeros(n_paths)
    counts = {"iterations": 0, "rk4_steps": 0, "candidates": 0, "clamps": 0}
    # recorded rows, one tuple of columns per stage: path, t, S (NaN until
    # bridged), N, X, belief, side code (0 on report rows), spread (NaN off
    # fills)
    first = np.arange(record)
    unknown = np.full(record, math.nan)
    log = [(first, t[first], s_last[first], n[first], x[first], pi[first], 0 * first, unknown)]
    next_report = np.ones(record, dtype=int)

    while np.any(active):
        counts["iterations"] += 1
        idx = np.flatnonzero(active)
        # draw fresh candidate clocks where the previous one was consumed
        fresh = idx[np.isnan(next_candidate[idx])]
        bound = thinning_bound(fresh)
        next_candidate[fresh] = math.inf  # no open side: no candidate
        fresh, bound = fresh[bound > 0.0], bound[bound > 0.0]
        next_candidate[fresh] = t[fresh] + events.exponential(fresh) / bound
        t_node = next_node[idx] * node_dt
        t_stop = np.minimum(np.minimum(next_candidate[idx], t_node), T)
        t0, pi0 = t[idx], pi[idx]

        inv_integral[idx] += n[idx].astype(float) ** 2 * (t_stop - t0)
        pi[idx], f_start, steps, clamped = _batch_advance(spec, velocity, idx, pi0, t0, t_stop, n[idx])
        counts["rk4_steps"] += steps
        counts["clamps"] += clamped
        t[idx] = t_stop
        next_node[idx[t_stop >= t_node]] += 1

        # report rows inside this step, from its cubic Hermite dense output
        rec = np.flatnonzero(idx < record)
        many = np.searchsorted(report_t, t_stop[rec], side="right") + 1 - next_report[idx[rec]]
        rec, many = rec[many > 0], many[many > 0]
        if len(rec):
            sel = idx[rec]
            start = next_report[sel]
            # the step's first stage; a single regime takes no step
            f0 = velocity(sel, t0[rec], n[sel], pi0[rec]) if f_start is None else f_start[rec]
            f1 = velocity(sel, t_stop[rec], n[sel], pi[sel])
            h = (t_stop - t0)[rec]
            of = np.repeat(np.arange(len(rec)), many)  # the step each row falls in
            # each row's 1-based report index: start, start + 1, ... within its step
            r = np.repeat(start - np.cumsum(many) + many, many) + np.arange(len(of))
            theta = (report_t[r - 1] - t0[rec][of]) / h[of]
            beliefs = _hermite(
                pi0[rec][of], f0[of], pi[sel][of], f1[of], h[of, None], theta[:, None]
            )
            p = sel[of]
            unknown = np.full(len(p), math.nan)
            log.append((p, report_t[r - 1], unknown, n[p], x[p], beliefs, 0 * p, unknown))
            next_report[sel] = start + many

        at_end = t_stop >= T
        active[idx[at_end]] = False
        cand = idx[(t_stop == next_candidate[idx]) & ~at_end]
        if len(cand) == 0:
            continue
        counts["candidates"] += len(cand)
        next_candidate[cand] = math.nan
        y = regime_at(cand, t[cand])
        qb, qa = policy.quotes_batch(t[cand], n[cand], pi[cand, 0], y)
        # arrival rates: belief-averaged, or the hidden regime's own
        weights = pi[cand] if y is None else np.eye(spec.n_regimes)[y]
        rates = observable_rates(weights, (qb, qa), n[cand], spec)
        rate_b, total = rates.bid_rate, rates.total
        bound = thinning_bound(cand)
        if np.any(total > bound * _BOUND_SLACK):
            raise NumericsError("thinning bound violated: arrival rate above the dominator")
        accept = events.uniform(cand) * bound < total
        filled, rate_b, total = cand[accept], rate_b[accept], total[accept]
        if len(filled) == 0:
            continue
        bid = events.uniform(filled) * total < rate_b
        spread = np.where(bid, qb[accept], qa[accept])
        dt = t[filled] - t_last[filled]
        z = prices.normal(filled)[:, 0]
        s_fill = s_last[filled] + spec.drift_mu * dt + spec.vol_sigma * np.sqrt(dt) * z
        s_last[filled], t_last[filled] = s_fill, t[filled]
        # a bid fill buys one unit at S - spread, an ask fill sells one at S + spread
        x[filled] += np.where(bid, spread - s_fill, s_fill + spread)
        n[filled] += np.where(bid, 1, -1)
        fills_b[filled] += bid
        fills_a[filled] += ~bid
        # the Bayes update: one batch call per side
        for side, on in (("bid", bid), ("ask", ~bid)):
            if on.any():
                paths = filled[on]
                pi[paths] = _filter_jump(pi[paths], side, spread[on], spec)
                # the update raises a coordinate it pushes under the floor to it
                counts["clamps"] += int(np.count_nonzero(pi[paths] == _FLOOR))
        mine = filled < record
        if mine.any():
            p = filled[mine]
            log.append((p, t[p], s_fill[mine], n[p], x[p], pi[p], 2 - bid[mine], spread[mine]))

    dt = T - t_last
    z = prices.normal(np.arange(n_paths))[:, 0]
    s_final = s_last + spec.drift_mu * dt + spec.vol_sigma * np.sqrt(dt) * z
    pnls = np.asarray(_penalized_pnl(spec, x, s_final, n.astype(float), inv_integral))
    records = [
        _record(spec, policy, regime_at, prices, seed, path_ids, p, rows, pnls, s_final, inv_integral)
        for p, rows in enumerate(_split_log(log, record))
    ]
    return pnls, fills_b, fills_a, records, counts


def _split_log(log, record: int):
    """The logged rows of each of the ``record`` recorded paths, in time
    order: per path the columns t, S, N, X, belief, side code, spread."""
    if record == 0:
        return []
    paths, *columns = (np.concatenate(column) for column in zip(*log))
    # stable: within a path, stages were logged in time order
    order = np.argsort(paths, kind="stable")
    cuts = np.searchsorted(paths[order], np.arange(1, record))
    return [[col[part] for col in columns] for part in np.split(order, cuts)]


def _record(spec, policy, regime_at, prices, seed, path_ids, p, rows, pnls, s_final, inv_integral):
    """Path ``p``'s record from its logged rows: a terminal row at T, prices
    bridged at the report rows, the quotes and the fills."""
    T = spec.horizon_T
    times, price, inventory, cash, probs, side, spread = rows
    if times[-1] < T:  # the terminal reporting node can miss T by one ulp
        times, price, inventory, cash, probs, side, spread = (
            np.append(col, [last], axis=0)
            for col, last in zip(rows, (T, s_final[p], inventory[-1], cash[-1], probs[-1], 0, math.nan))
        )
    n_final, x_final = int(inventory[-1]), float(cash[-1])
    price[times >= T] = s_final[p]
    known = ~np.isnan(price)  # t = 0, the fills and T
    z = prices.normal(np.array([p]), len(times) - 1)[0]
    price[~known] = _bridge(spec, times[known], price[known], times[~known], z)
    bid, ask = policy.quotes_batch(times, inventory, probs[:, 0], regime_at(np.full(len(times), p), times))
    is_fill = side > 0
    fills = [
        Fill(ft, _SIDES[code], sp, fp)
        for ft, code, sp, fp in zip(
            times[is_fill].tolist(), side[is_fill].tolist(), spread[is_fill].tolist(), price[is_fill].tolist()
        )
    ]
    return PathRecord(
        seed=seed,
        path_index=int(path_ids[p]),
        fills=fills,
        times=times,
        price=price,
        inventory=inventory,
        cash=cash,
        probs=probs,
        spread_bid=bid,
        spread_ask=ask,
        event_side=[_SIDES[code] for code in side.tolist()],
        n_final=n_final,
        x_final=x_final,
        s_final=float(s_final[p]),
        inventory_integral=float(inv_integral[p]),
        pnl_penalized=float(pnls[p]),
    )


def _run(spec, policy, seed, path_ids, report_points, h_target, regime_true, record):
    """The lockstep engine over ``path_ids`` in blocks of ``_CHUNK`` paths,
    merged in path order, so memory grows with the block, not the run.

    Returns per-path penalized P&L, bid and ask fill counts, the records of
    the first ``record`` paths and the summed run counters.  Raises
    ``ValueError`` for a cap that is not a positive integer, which every
    policy's fill gates would otherwise compare against, for a horizon
    that is not finite and > 0, whose paths would never end, and for a
    generator that is not one, whose regime chain and belief drift would
    have no meaning; each with ``validate``'s message.
    """
    spec.inventory_levels()
    check_horizon(spec.horizon_T)
    check_generator(spec)
    check_count("seed", seed, 0, 2**64)
    check_count("report_points", report_points)
    if not 0.0 < h_target < math.inf:
        raise ValueError(f"h_target must be finite and > 0, got {h_target!r}")
    if spec.n_regimes > 1:  # a single regime's belief is constant and takes no step
        # the belief ODE's rates are bounded by the switching rates plus the
        # dominating order rates; a step past RK4's stability limit on them
        # would drive the belief into the simplex-floor clamp
        rate = 2.0 * np.max(np.abs(np.diag(spec.generator_Q))) + sum(_dominating_rates(spec, policy))
        if h_target * rate > _RK4_REAL_LIMIT:
            raise UnsupportedConfigError(
                f"h_target = {h_target:g} times the belief's rate bound {rate:.6g} exceeds "
                f"RK4's stability limit {_RK4_REAL_LIMIT}"
            )
    parts = [
        _lockstep(
            spec, policy, seed, path_ids[lo : lo + _CHUNK], report_points, h_target,
            regime_true, min(max(record - lo, 0), _CHUNK),
        )
        for lo in range(0, len(path_ids), _CHUNK)
    ]
    pnls, fills_b, fills_a, records, counts = zip(*parts)
    counts = {key: sum(c[key] for c in counts) for key in counts[0]}
    if counts["clamps"]:
        logger.warning("belief clamped at the simplex floor %d times", counts["clamps"])
    return (
        np.concatenate(pnls),
        np.concatenate(fills_b),
        np.concatenate(fills_a),
        [rec for block in records for rec in block],
        counts,
    )


def simulate_path(
    spec: ModelSpec,
    policy: Policy,
    seed: int,
    *,
    path_index: int = 0,
    report_points: int = DEFAULT_REPORT_POINTS,
    h_target: float = DEFAULT_FILTER_STEP,
) -> PathRecord:
    """Simulate path ``path_index`` alone under the observable-intensity
    dynamics.  ``path_index`` is an integer in [0, 2**62), so that its
    stream keys fit in 64 bits."""
    check_count("path_index", path_index, 0, 2**62)
    *_, records, _ = _run(spec, policy, seed, [path_index], report_points, h_target, False, 1)
    return records[0]


def simulate_with_regime(
    spec: ModelSpec,
    policy: Policy,
    seed: int,
    *,
    path_index: int = 0,
    report_points: int = DEFAULT_REPORT_POINTS,
    h_target: float = DEFAULT_FILTER_STEP,
) -> tuple[PathRecord, list[tuple[float, int]]]:
    """Simulate the hidden regime explicitly; orders arrive at the
    regime-true intensity while the filter runs on observables only.

    Returns the path record plus the sampled (switch time, 0-based state)
    regime path.  ``path_index`` is checked as in ``simulate_path``.
    """
    check_count("path_index", path_index, 0, 2**62)
    *_, records, _ = _run(spec, policy, seed, [path_index], report_points, h_target, True, 1)
    return records[0], draw_regime_path(spec, Substream(seed, [path_index], REGIME))


def monte_carlo(
    spec: ModelSpec,
    policy: Policy,
    n_paths: int,
    seed: int,
    *,
    report_points: int = DEFAULT_REPORT_POINTS,
    h_target: float = DEFAULT_FILTER_STEP,
    regime_true: bool = False,
    export_paths: int = 0,
) -> MonteCarloSummary:
    """Vectorized Monte Carlo over path-indexed counter-based streams.

    With ``regime_true`` orders are thinned against the hidden regime's
    intensity (the full-information comparison); the first ``export_paths``
    paths come back recorded.  Deterministic for fixed (spec, policy, seed,
    n_paths) regardless of how the work might be partitioned: each path
    consumes only its own streams and aggregation is an ordered reduction
    over path indices.
    """
    check_count("n_paths", n_paths)
    check_count("export_paths", export_paths, 0)
    pnls, fills_b, fills_a, records, counters = _run(
        spec, policy, seed, range(n_paths), report_points, h_target, regime_true,
        min(export_paths, n_paths),
    )
    mean = float(np.mean(pnls))
    stderr = float(np.std(pnls, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    counts, edges = np.histogram(pnls, bins=_HIST_BINS)
    return MonteCarloSummary(
        paths=n_paths,
        mean_pnl=mean,
        stderr=stderr,
        mean_fills_bid=float(np.mean(fills_b)),
        mean_fills_ask=float(np.mean(fills_a)),
        hist_edges=edges,
        hist_counts=counts,
        pnls=pnls,
        fills_bid_paths=fills_b,
        fills_ask_paths=fills_a,
        records=tuple(records),
        **counters,
    )
