"""Order-arrival intensity curves and the per-regime spread optimization.

An intensity family is a positive, decreasing curve ``lam(delta)`` giving the
client order-arrival rate as a function of the quoted spread.  The module
provides the curve calculus (values, first and second derivatives, validity
checks), the CARA utility pair ``U_gamma`` / ``U_gamma^{-1}``, and the two
quantities the solvers need from

    h(delta, d) = lam(delta) * U_gamma(delta + d):

its maximizer over admissible spreads, ``optimal_spread`` (closed form for
exponential curves, a threshold window plus a safeguarded Newton search of
the fixed point for the other smooth families, grid search for tabulated
ones), and the Hamiltonian ``H(d) = sup_delta h(delta, d)``,
``hamiltonian_value``.  The maximizer's constants that do not depend on d
(the exponential margin, the window and the Newton search's start table, a
tabulated curve's search grid) are computed at each call, or once by
``prepared``, which a solver calls once per solve.

All operations broadcast over numpy arrays of ``delta`` or ``d``.  The
exponential, logistic and arctan kinds also take per-element parameters:
equal-shape arrays, one curve per element, which broadcast against the
spreads, so one call covers many curves of one kind and equals the calls at
each of its curves bit for bit.  ``family_at`` gathers such a family's curves at an
index.  Families are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import NumericsError

KINDS = ("exponential", "logistic", "arctan", "power_law", "tabulated")

# A positive risk aversion below the smallest normal float loses the digits
# of gamma * c, so U_gamma(0.04) would read 0: gamma is 0 or at least this.
MIN_RISK_AVERSION = sys.float_info.min
RISK_AVERSION_DOMAIN = f"risk aversion must be 0 or at least {MIN_RISK_AVERSION:.6g}"

# Sentinel spread meaning "do not quote this side"; consumers treat it as
# zero fill intensity.
STUB_SPREAD = math.inf

# Probe window used when spread bounds are infinite: validity checks sample
# the curve at _N_PROBE points of the effective range
# [max(lo, -PROBE_HALF_WIDTH), min(hi, PROBE_HALF_WIDTH)].
PROBE_HALF_WIDTH = 10.0
_N_PROBE = 1000

_FIXED_POINT_TOL = 1e-12
_RELATIVE_TOL = 4.0 * sys.float_info.epsilon
_FIXED_POINT_MAX_ITER = 200
_START_NODES = 129  # nodes of the residual table that starts the Newton search
_GRID_POINTS = 20001  # a tabulated curve's search grid
_GRID_BLOCK = 64


def is_stub(delta):
    """True where a spread is the do-not-quote sentinel (+inf); broadcasts."""
    return np.equal(delta, np.inf)


@dataclass(frozen=True)
class IntensityFamily:
    """One regime's decreasing intensity curve with analytic derivatives.

    kind/params (the exponential, logistic and arctan ones may also be
    equal-shape arrays of per-element parameters):
      exponential: (a, b)        lam = a * exp(-b d)
      logistic:    (a, b, c)     lam = a / (1 + c e^{b d})
      arctan:      (a, b, c)     lam = a * (pi/2 + atan(-b d + c))
      power_law:   (a, b, c, d)  lam = a * (b d + c)^{-d}, needs b d + c > 0
      tabulated:   (knots, values) piecewise-linear sample of a curve
    """

    kind: str
    params: tuple
    # set by ``prepared``; not part of the curve's identity
    maximizer: Maximizer | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown intensity kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exponential(a: float, b: float) -> "IntensityFamily":
        return IntensityFamily("exponential", (float(a), float(b)))

    @staticmethod
    def logistic(a: float, b: float, c: float) -> "IntensityFamily":
        return IntensityFamily("logistic", (float(a), float(b), float(c)))

    @staticmethod
    def arctan(a: float, b: float, c: float) -> "IntensityFamily":
        return IntensityFamily("arctan", (float(a), float(b), float(c)))

    @staticmethod
    def power_law(a: float, b: float, c: float, d: float) -> "IntensityFamily":
        return IntensityFamily("power_law", (float(a), float(b), float(c), float(d)))

    @staticmethod
    def tabulated(knots: Iterable[float], values: Iterable[float]) -> "IntensityFamily":
        k = tuple(float(x) for x in knots)
        v = tuple(float(x) for x in values)
        if len(k) != len(v) or len(k) < 2:
            raise ValueError("tabulated family needs >= 2 (knot, value) pairs")
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("tabulated knots must be strictly increasing")
        return IntensityFamily("tabulated", (k, v))

    # -- domain --------------------------------------------------------------

    def domain_lo(self) -> float:
        """Left end of the open domain where the curve is defined."""
        if self.kind == "power_law":
            a, b, c, d = self.params
            return -c / b
        if self.kind == "tabulated":
            return self.params[0][0]
        return -math.inf

    def domain_hi(self) -> float:
        if self.kind == "tabulated":
            return self.params[0][-1]
        return math.inf


def eval_intensity(fam: IntensityFamily, delta):
    """Curve value lam(delta); broadcasts over arrays."""
    d = np.asarray(delta, dtype=float)
    if fam.kind == "exponential":
        a, b = fam.params
        out = a * np.exp(-b * d)
    elif fam.kind == "logistic":
        a, b, c = fam.params
        with np.errstate(over="ignore"):  # far out, a / inf = 0 is lam's value
            out = a / (1.0 + c * np.exp(b * d))
    elif fam.kind == "arctan":
        a, b, c = fam.params
        out = a * (np.pi / 2.0 + np.arctan(-b * d + c))
    elif fam.kind == "power_law":
        a, b, c, p = fam.params
        base = b * d + c
        if np.any(base <= 0):
            raise ValueError(
                f"power_law intensity evaluated at delta <= {-c / b:.6g} (outside domain)"
            )
        out = a * base ** (-p)
    else:  # tabulated
        knots, values = fam.params
        out = np.interp(d, knots, values)
    return out if isinstance(delta, np.ndarray) or np.ndim(out) else float(out)


def eval_derivative(fam: IntensityFamily, delta):
    """d lam / d delta; analytic per family, centered differences for tabulated."""
    d = np.asarray(delta, dtype=float)
    if fam.kind == "exponential":
        a, b = fam.params
        out = -a * b * np.exp(-b * d)
    elif fam.kind == "logistic":
        a, b, c = fam.params
        # e/(1 + e)^2 as 1/(e + 2 + 1/e): where e overflows or underflows,
        # the sum is inf and lam' is -0, not inf/inf
        with np.errstate(over="ignore", divide="ignore"):
            e = c * np.exp(b * d)
            out = -a * b / (e + 2.0 + 1.0 / e)
    elif fam.kind == "arctan":
        a, b, c = fam.params
        u = -b * d + c
        out = -a * b / (1.0 + u * u)
    elif fam.kind == "power_law":
        a, b, c, p = fam.params
        base = b * d + c
        if np.any(base <= 0):
            raise ValueError("power_law derivative outside domain")
        out = -a * b * p * base ** (-p - 1.0)
    else:  # tabulated: centered differences, step = knot range / 1e6
        knots, values = fam.params
        h = (knots[-1] - knots[0]) / 1e6
        lo, hi = knots[0], knots[-1]
        dm = np.clip(d - h, lo, hi)
        dp = np.clip(d + h, lo, hi)
        out = (np.interp(dp, knots, values) - np.interp(dm, knots, values)) / (dp - dm)
    return out if isinstance(delta, np.ndarray) or np.ndim(out) else float(out)


def eval_curvature(fam: IntensityFamily, delta):
    """d^2 lam / d delta^2 of a smooth curve; broadcasts over arrays.  A
    tabulated curve has none."""
    d = np.asarray(delta, dtype=float)
    if fam.kind == "exponential":
        a, b = fam.params
        out = a * b * b * np.exp(-b * d)
    elif fam.kind == "logistic":
        a, b, c = fam.params
        # lam'' = a b^2 e (e - 1)/(1 + e)^3, with (e - 1)/(e + 1) = tanh(ln(e)/2)
        # and the rest as in eval_derivative: finite at every spread
        with np.errstate(over="ignore", divide="ignore"):
            e = c * np.exp(b * d)
            out = a * b * b * np.tanh(0.5 * (b * d + np.log(c))) / (e + 2.0 + 1.0 / e)
    elif fam.kind == "arctan":
        a, b, c = fam.params
        u = -b * d + c
        out = -2.0 * a * b * b * u / (1.0 + u * u) ** 2
    elif fam.kind == "power_law":
        a, b, c, p = fam.params
        base = b * d + c
        if np.any(base <= 0):
            raise ValueError("power_law curvature outside domain")
        out = a * b * b * p * (p + 1.0) * base ** (-p - 2.0)
    else:
        raise ValueError("a tabulated intensity has no curvature")
    return out if isinstance(delta, np.ndarray) or np.ndim(out) else float(out)


def family_at(fam: IntensityFamily, index, shape) -> IntensityFamily:
    """The curves of ``fam`` at ``index``: each per-element parameter,
    broadcast to ``shape``, taken there.  A family of scalar parameters is
    returned as it is."""
    if fam.kind == "tabulated" or all(np.ndim(p) == 0 for p in fam.params):
        return fam
    return IntensityFamily(fam.kind, tuple(np.broadcast_to(p, shape)[index] for p in fam.params))


# -- CARA utility -----------------------------------------------------------


def utility(gamma: float, c):
    """CARA utility U_gamma(c) = (1 - exp(-gamma c)) / gamma, with U_0 = id."""
    if not (gamma == 0.0 or gamma >= MIN_RISK_AVERSION):
        raise ValueError(RISK_AVERSION_DOMAIN)
    if gamma == 0.0:
        return c
    x = np.asarray(c, dtype=float)
    out = -np.expm1(-gamma * x) / gamma
    return out if isinstance(c, np.ndarray) else float(out)


def utility_inverse(gamma: float, y):
    """Inverse of utility(); for gamma > 0 requires y < 1/gamma."""
    if not (gamma == 0.0 or gamma >= MIN_RISK_AVERSION):
        raise ValueError(RISK_AVERSION_DOMAIN)
    if gamma == 0.0:
        return y
    x = np.asarray(y, dtype=float)
    if np.any(x >= 1.0 / gamma):
        raise ValueError(f"utility_inverse: y must be < 1/gamma = {1.0 / gamma:.6g}")
    out = -np.log1p(-gamma * x) / gamma
    return out if isinstance(y, np.ndarray) else float(out)


# -- validity checks --------------------------------------------------------


def _probe_grid(fam: IntensityFamily, lo: float, hi: float) -> np.ndarray:
    eff_lo = max(lo, -PROBE_HALF_WIDTH, fam.domain_lo())
    eff_hi = min(hi, PROBE_HALF_WIDTH, fam.domain_hi())
    if fam.kind == "power_law" and lo <= fam.domain_lo():
        # keep strictly inside the singular end
        eff_lo = fam.domain_lo() + 1e-9 * max(1.0, abs(fam.domain_lo()))
    if eff_lo >= eff_hi:
        raise ValueError("empty effective spread range for intensity checks")
    return np.linspace(eff_lo, eff_hi, _N_PROBE)


def family_violations(fam: IntensityFamily, lo: float, hi: float, gamma: float) -> list[str]:
    """Check positivity, monotone decay, a fall across the probed spread
    range (a flat curve has no optimal spread) and (if hi is infinite,
    gamma = 0) the fast-decay tail condition. Returns human-readable
    violations, empty if ok."""
    out: list[str] = []
    if not all(np.all(np.isfinite(p)) for p in fam.params):
        return ["parameters must be finite"]
    if fam.kind == "power_law" and not fam.params[1] > 0:
        return ["power_law requires b > 0"]  # else its domain has no left end
    if fam.kind == "power_law" and not lo > fam.domain_lo():
        out.append(
            f"power_law requires spread_lo > {fam.domain_lo():.6g} (curve domain)"
        )
        return out
    if fam.kind == "tabulated" and (lo < fam.domain_lo() or hi > fam.domain_hi()):
        out.append("tabulated intensity does not cover the spread bounds")
        return out
    grid = _probe_grid(fam, lo, hi)
    vals = eval_intensity(fam, grid)
    if np.any(vals <= 0.0):
        out.append("intensity must be strictly positive on the spread range")
    if np.any(np.diff(vals) > 1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
        out.append("intensity must be decreasing in the spread")
    if not vals[-1] < vals[0]:  # e.g. b = 0: no spread beats another
        out.append("intensity must fall across the spread range, not stay flat")
    if math.isinf(hi) and fam.kind != "tabulated":
        # tail condition: delta^{1{gamma=0}} * lam(delta) -> 0 as delta -> inf,
        # probed by requiring clear decay between two far-out points
        power = 1.0 if gamma == 0.0 else 0.0
        tail = np.array([1e3, 1e6])
        with np.errstate(over="ignore"):  # a curve that underflows to 0 there decays
            tail_vals = np.asarray(eval_intensity(fam, tail)) * tail**power
        if not (tail_vals[0] == 0.0 or tail_vals[1] < 0.9 * tail_vals[0]):
            out.append(
                "intensity tail decays too slowly for unbounded spreads"
                + (" (need delta*lam -> 0 when gamma = 0)" if gamma == 0.0 else "")
            )
    return out


# -- thresholds, optimal spread, Hamiltonian ---------------------------------


def _ratios(fam: IntensityFamily, delta):
    """r = lam/lam' at ``delta`` and its slope r' = 1 - lam lam''/lam'^2
    (None for a tabulated curve, which has no lam'').

    A logistic curve takes r = -(1 + e^{-b delta}/c)/b and
    r' = e^{-b delta}/c, with no power c e^{b delta}, which overflows
    past b delta of about 709 and would make both NaN.  Where e^{-b delta}
    overflows instead, far below the curve's midpoint, r is -inf, as
    lam/lam' is there.
    """
    if fam.kind == "logistic":
        _, b, c = fam.params
        tail = np.exp(-b * np.asarray(delta)) / c
        return -(1.0 + tail) / b, tail
    lam = np.asarray(eval_intensity(fam, delta))
    dlam = np.asarray(eval_derivative(fam, delta))
    if fam.kind == "tabulated":
        return lam / dlam, None
    return lam / dlam, 1.0 - lam * eval_curvature(fam, delta) / (dlam * dlam)


def _neg_uinv_ratio(fam: IntensityFamily, gamma: float, delta):
    """-U_gamma^{-1}(lam(delta) / lam'(delta)); the margin term of the fixed point."""
    return -utility_inverse(gamma, _ratios(fam, delta)[0])


def spread_thresholds(
    fam: IntensityFamily, gamma: float, bounds: tuple[float, float]
) -> tuple[float, float]:
    """Difference-argument thresholds (cap_below, floor_above).

    For d below the first value the optimal spread caps at the upper bound;
    for d above the second it floors at the lower bound.  Infinite bounds
    yield -inf / +inf respectively (no capping / no flooring ever).  A
    family of per-element parameters gives arrays, any other floats.
    """
    lo, hi = bounds
    cap = -math.inf if math.isinf(hi) else _neg_uinv_ratio(fam, gamma, hi) - hi
    floor = math.inf if math.isinf(lo) else _neg_uinv_ratio(fam, gamma, lo) - lo
    return tuple(v if np.ndim(v) else float(v) for v in (cap, floor))


@dataclass(frozen=True)
class Maximizer:
    """The constants of one family's maximizer that depend on (gamma,
    bounds) but not on d:

      exponential: ``margin``, -U_gamma^{-1}(-1/b), the spread at d = 0;
      tabulated:   ``nodes``, the search grid, and ``table``, lam there;
      the others:  ``window``, the ``spread_thresholds`` pair, and
                   ``table``, the fixed-point residual at d = 0 on the
                   start ``nodes``, with the node axis last.
    """

    gamma: float
    bounds: tuple
    margin: object = None
    window: tuple | None = None
    nodes: np.ndarray | None = None
    table: np.ndarray | None = None


def prepared(fam: IntensityFamily, gamma: float, bounds) -> IntensityFamily:
    """``fam`` carrying its ``Maximizer`` at (gamma, bounds), so that
    ``optimal_spread`` and ``hamiltonian_value`` at those arguments reuse
    it: a solver prepares each curve once per solve, not once per call."""
    return replace(fam, maximizer=_constants(fam, gamma, bounds))


def _constants(fam: IntensityFamily, gamma: float, bounds) -> Maximizer:
    """The family's own ``Maximizer`` if it was prepared at (gamma, bounds),
    else a new one."""
    held = fam.maximizer
    if held is not None and held.gamma == gamma and held.bounds == tuple(bounds):
        return held
    lo, hi = bounds
    if fam.kind == "exponential":
        return Maximizer(gamma, (lo, hi), margin=-utility_inverse(gamma, -1.0 / fam.params[1]))
    if fam.kind == "tabulated":
        g_lo = max(lo, fam.domain_lo())
        g_lo = max(g_lo, -PROBE_HALF_WIDTH) if not math.isfinite(lo) else g_lo
        g_hi = min(hi, fam.domain_hi())
        g_hi = min(g_hi, PROBE_HALF_WIDTH) if not math.isfinite(hi) else g_hi
        grid = np.linspace(g_lo, g_hi, _GRID_POINTS)
        return Maximizer(gamma, (lo, hi), nodes=grid, table=np.asarray(eval_intensity(fam, grid)))
    return _search_constants(fam, gamma, bounds)


def _search_constants(fam: IntensityFamily, gamma: float, bounds) -> Maximizer:
    """The window and start table of the fixed-point search."""
    lo, hi = bounds
    # the start nodes span the bounds, or [-1, 1] on an infinite side (kept
    # inside a power law's domain); the search grows its bracket beyond them
    last = hi if math.isfinite(hi) else max(1.0, lo + 2.0)
    first = lo if math.isfinite(lo) else min(-1.0, last - 2.0)
    dom_lo = fam.domain_lo()
    if not math.isfinite(lo) and math.isfinite(dom_lo):
        first = max(first, dom_lo + 1e-9 * max(1.0, abs(dom_lo)))
    nodes = np.linspace(first, last, _START_NODES)
    ndim = np.broadcast(*fam.params).ndim
    table, _ = _fixed_point_residual(fam, gamma, nodes.reshape((-1,) + (1,) * ndim), 0.0)
    return Maximizer(
        gamma, (lo, hi), window=spread_thresholds(fam, gamma, bounds), nodes=nodes,
        table=np.moveaxis(table, 0, -1),
    )


def _fixed_point_residual(fam, gamma, delta, d):
    """f(delta, d) = delta + U^{-1}(r) + d with r = lam/lam', strictly
    increasing in delta, and its slope 1 + r'/(1 - gamma r), where
    r' = 1 - lam lam''/lam'^2."""
    ratio, ratio_slope = _ratios(fam, delta)
    value = np.asarray(delta) + utility_inverse(gamma, ratio) + np.asarray(d)
    slope = 1.0 + ratio_slope / (1.0 - gamma * ratio)
    return value, slope


def _solve_fixed_point(fam, gamma, d, bounds, nodes, table):
    """Root of f(delta, d) = 0 over ``bounds`` per element of ``d``, by a
    safeguarded Newton iteration.

    ``table`` holds each element's f(delta, 0) at ``nodes`` (one row per
    element), so f(node, d) is the row plus d: the two nodes around the
    sign change bracket the root, and the root of the line through them
    starts the search.  Past an infinite bound the bracket is grown
    geometrically from the last node first, past any end whose residual is
    NaN (a curve that overflows there).  A Newton step that leaves the
    bracket becomes a bisection step.  An element is finished once its
    Newton step or its bracket is within max(_FIXED_POINT_TOL,
    4 eps |delta|), which lets far-out roots converge, and is frozen from
    then on, so a batch gives exactly the per-element results.  A bracket
    end on the wrong side of zero by rounding is itself the root.
    """
    lo, hi = bounds
    rows = np.arange(d.size)
    # the last node whose residual is <= 0 opens the cell of the sign change
    cell = np.clip(np.count_nonzero(table <= -d[:, None], axis=1) - 1, 0, len(nodes) - 2)
    a, b = nodes[cell], nodes[cell + 1]
    fa, fb = table[rows, cell] + d, table[rows, cell + 1] + d
    if not math.isfinite(lo):
        dom_lo = fam.domain_lo()
        for _ in range(200):
            grow = ~(fa <= 0.0)
            if not np.any(grow):
                break
            b, fb = np.where(grow, a, b), np.where(grow, fa, fb)
            step = np.where(grow, 1.0 + 2.0 * np.abs(a), 0.0)
            a = np.maximum(a - step, 0.5 * (a + dom_lo)) if math.isfinite(dom_lo) else a - step
            fa = np.where(grow, _fixed_point_residual(fam, gamma, a, d)[0], fa)
        else:
            raise NumericsError("could not bracket the optimal-spread fixed point from below")
    if not math.isfinite(hi):
        for _ in range(200):
            grow = ~(fb >= 0.0)
            if not np.any(grow):
                break
            a, fa = np.where(grow, b, a), np.where(grow, fb, fa)
            b = np.where(grow, b + 1.0 + 2.0 * np.abs(b), b)
            fb = np.where(grow, _fixed_point_residual(fam, gamma, b, d)[0], fb)
        else:
            raise NumericsError("could not bracket the optimal-spread fixed point from above")
    x = a + (b - a) * (fa / (fa - fb))
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    x = np.where(fa >= 0.0, a, np.where(fb <= 0.0, b, x))
    done = (fa >= 0.0) | (fb <= 0.0)
    for _ in range(_FIXED_POINT_MAX_ITER):
        if done.all():
            return x
        f, slope = _fixed_point_residual(fam, gamma, x, d)
        below = f < 0.0
        a, b = np.where(below, x, a), np.where(below, b, x)
        newton = x - f / slope
        tol = np.maximum(_FIXED_POINT_TOL, _RELATIVE_TOL * np.abs(x))
        converged = (np.abs(newton - x) <= tol) & np.isfinite(slope)
        inside = (a < newton) & (newton < b)
        x = np.where(done, x, np.where(converged | inside, newton, 0.5 * (a + b)))
        done |= converged | (b - a <= tol)
    if np.max((b - a)[~done]) > 1e-6:
        raise NumericsError(
            "optimal-spread root search did not converge; "
            "intensity family likely violates the strong assumptions"
        )
    return x


def _grid_search_spread(m: Maximizer, gamma, d):
    """Maximizer of h(delta, d) for a tabulated curve on its uniform search
    grid (smallest argmax on ties)."""
    grid, lam = m.nodes, m.table
    d_flat = np.asarray(d, dtype=float).ravel()
    idx = np.empty(d_flat.shape, dtype=np.intp)
    # a block of d values at a time keeps the (block, n_grid) table small
    for start in range(0, d_flat.size, _GRID_BLOCK):
        block = d_flat[start : start + _GRID_BLOCK, None]
        h = lam * np.asarray(utility(gamma, grid + block))
        idx[start : start + _GRID_BLOCK] = np.argmax(h, axis=-1)  # first maximizer
    return np.where(np.isnan(d), np.nan, grid[idx].reshape(np.shape(d)))


def _fixed_point_spread(fam: IntensityFamily, gamma: float, d: np.ndarray, bounds):
    """Maximizer at the array ``d`` for a smooth curve: the bounds outside
    the threshold window, the fixed point found by ``_solve_fixed_point``
    inside it, NaN at a NaN."""
    lo, hi = bounds
    m = _constants(fam, gamma, bounds)
    if m.window is None:  # an exponential curve's constants serve its closed form
        m = _search_constants(fam, gamma, bounds)
    cap, floor = m.window
    interior = (d > cap) & (d < floor)
    out = np.where(d <= cap, hi, np.where(d >= floor, lo, np.nan))
    if np.any(interior):
        table = np.broadcast_to(m.table, d.shape + m.nodes.shape)[interior]
        out[interior] = _solve_fixed_point(
            family_at(fam, interior, d.shape), gamma, d[interior], bounds, m.nodes, table
        )
    return np.clip(out, lo, hi)


def optimal_spread(fam: IntensityFamily, gamma: float, d, bounds: tuple[float, float]):
    """Spread maximizing lam(delta) * U_gamma(delta + d) over [bounds].

    Interior solutions solve the fixed point
        delta = -U_gamma^{-1}(lam(delta)/lam'(delta)) - d,
    clamped at the bounds outside the threshold window.  Exponential curves
    admit a closed form (the percentage sensitivity lam'/lam is constant);
    other smooth families use a safeguarded Newton search started from a
    table of the fixed-point residual, tabulated curves use grid search.
    The constants that do not depend on d are those of a ``prepared``
    family, or computed at the call.  Per-element parameters broadcast
    against ``d``.  Every element is solved on its own, so an array call
    equals the calls at each of its elements and curves, bit for bit.  A
    NaN d gives a NaN spread.
    """
    lo, hi = bounds
    if fam.kind == "exponential":
        out = np.clip(_constants(fam, gamma, bounds).margin - np.asarray(d, dtype=float), lo, hi)
        return float(out) if out.ndim == 0 else out
    scalar = np.ndim(d) == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    if fam.kind == "tabulated":
        out = np.clip(_grid_search_spread(_constants(fam, gamma, bounds), gamma, d_arr), lo, hi)
    else:
        out = _fixed_point_spread(fam, gamma, d_arr, bounds)
    return float(out[0]) if scalar else out.reshape(np.shape(d))


def hamiltonian_value(fam, gamma, d, bounds):
    """H(d) = sup_delta h(delta, d) = h(optimal_spread, d) over [bounds];
    the ODE/PIDE right-hand sides' Hamiltonian term."""
    delta = optimal_spread(fam, gamma, d, bounds)
    return np.asarray(eval_intensity(fam, delta)) * np.asarray(utility(gamma, np.asarray(delta) + np.asarray(d)))

