"""Order-arrival intensity curves and the per-regime spread optimization.

An intensity family is a positive, decreasing curve ``lam(delta)`` giving the
client order-arrival rate as a function of the quoted spread.  The module
provides the curve calculus (values, first derivatives, validity checks), the
CARA utility pair ``U_gamma`` / ``U_gamma^{-1}``, and the two quantities the
solvers need from

    h(delta, d) = lam(delta) * U_gamma(delta + d):

its maximizer over admissible spreads, ``optimal_spread`` (closed form for
exponential curves, a threshold window plus a bracketed Chandrupatla root
search of the fixed point for the other smooth families, grid search for
tabulated ones), and the Hamiltonian
``H(d) = sup_delta h(delta, d)``, ``hamiltonian_value``.

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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericsError

KINDS = ("exponential", "logistic", "arctan", "power_law", "tabulated")

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
        e = c * np.exp(b * d)
        out = -a * b * e / (1.0 + e) ** 2
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
    if gamma < 0:
        raise ValueError("risk aversion must be >= 0")
    if gamma == 0.0:
        return c
    x = np.asarray(c, dtype=float)
    out = -np.expm1(-gamma * x) / gamma
    return out if isinstance(c, np.ndarray) else float(out)


def utility_inverse(gamma: float, y):
    """Inverse of utility(); for gamma > 0 requires y < 1/gamma."""
    if gamma < 0:
        raise ValueError("risk aversion must be >= 0")
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


def _neg_uinv_ratio(fam: IntensityFamily, gamma: float, delta):
    """-U_gamma^{-1}(lam(delta) / lam'(delta)); the margin term of the fixed point."""
    ratio = np.asarray(eval_intensity(fam, delta)) / np.asarray(eval_derivative(fam, delta))
    return -utility_inverse(gamma, ratio)


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


def _fixed_point_residual(fam, gamma, delta, d):
    """f(delta, d) = delta + U^{-1}(lam/lam') + d; strictly increasing in delta."""
    return np.asarray(delta) - _neg_uinv_ratio(fam, gamma, delta) + np.asarray(d)


def _solve_fixed_point(fam, gamma, d, lo, hi):
    """Root of f(delta, d) = 0 over [lo, hi] per element of ``d``:
    Chandrupatla's hybrid of bisection and inverse quadratic interpolation
    (T. R. Chandrupatla, Adv. Eng. Software 28, 1997).

    Assumes a sign change is already bracketed.  Bounds may be +-inf, in
    which case the bracket is grown geometrically from [-1, 1] first.  An
    element is finished once its bracket is narrower than
    max(_FIXED_POINT_TOL, 4 eps |delta|), which lets far-out roots converge,
    and is frozen from then on, so a batch gives exactly the per-element
    results.  Returns the bracket end with the smaller residual.
    """
    d = np.asarray(d, dtype=float)
    lo_v = np.full(d.shape, lo if math.isfinite(lo) else -1.0)
    hi_v = np.full(d.shape, hi if math.isfinite(hi) else 1.0)
    dom_lo = fam.domain_lo()
    if not math.isfinite(lo):
        lo_v = np.maximum(lo_v, dom_lo + 1e-9 * max(1.0, abs(dom_lo))) if math.isfinite(dom_lo) else lo_v
        for _ in range(200):
            bad = _fixed_point_residual(fam, gamma, lo_v, d) > 0.0
            if not np.any(bad):
                break
            grow = np.where(bad, 1.0 + 2.0 * np.abs(lo_v), 0.0)
            if math.isfinite(dom_lo):
                lo_v = np.where(bad, np.maximum(lo_v - grow, 0.5 * (lo_v + dom_lo)), lo_v)
            else:
                lo_v = np.where(bad, lo_v - grow, lo_v)
        else:
            raise NumericsError("could not bracket the optimal-spread fixed point from below")
    if not math.isfinite(hi):
        for _ in range(200):
            bad = _fixed_point_residual(fam, gamma, hi_v, d) < 0.0
            if not np.any(bad):
                break
            hi_v = np.where(bad, hi_v + 1.0 + 2.0 * np.abs(hi_v), hi_v)
        else:
            raise NumericsError("could not bracket the optimal-spread fixed point from above")
    # x1 is the newest point, x2 the other end of the bracket, x3 the end
    # dropped last; t places the next point at x1 + t (x2 - x1)
    x1, x2 = lo_v, hi_v
    f1, f2 = _fixed_point_residual(fam, gamma, np.stack([x1, x2]), d)
    # an end on the wrong side by rounding is itself the root
    f1, f2 = np.minimum(f1, 0.0), np.maximum(f2, 0.0)
    x3, f3 = x2, f2
    done = (f1 == 0.0) | (f2 == 0.0)
    t = np.where(done, 0.0, 0.5)
    for _ in range(_FIXED_POINT_MAX_ITER):
        xt = x1 + t * (x2 - x1)  # t = 0 keeps a finished element at x1 ...
        ft = np.where(done, f1, _fixed_point_residual(fam, gamma, xt, d))  # ... and f1
        flip = (ft > 0.0) != (f1 > 0.0)  # the root lies between x1 and xt
        x3, f3 = np.where(flip, x2, x1), np.where(flip, f2, f1)
        x2, f2 = np.where(flip, x1, x2), np.where(flip, f1, f2)
        x1, f1 = xt, ft
        best = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        width = np.abs(x2 - x1)
        tol = np.maximum(_FIXED_POINT_TOL, _RELATIVE_TOL * np.abs(best))
        done |= (width < tol) | (f1 == 0.0)
        if done.all():
            return best
        # inverse quadratic interpolation through the three points where
        # Chandrupatla's criterion finds it safe, bisection elsewhere
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        f31 = np.where(iqi, f3 - f1, 1.0)  # f3 = f1 makes phi = 1, never iqi
        t_iqi = f1 / (f2 - f1) * f3 / (f2 - f3) + (
            (x3 - x1) / (x2 - x1) * f1 / f31 * f2 / (f3 - f2)
        )
        # keep the next point at least tol / 2 inside the bracket; a finished
        # element stays where it is
        tl = 0.5 * tol / width
        t = np.where(done, 0.0, np.minimum(np.maximum(np.where(iqi, t_iqi, 0.5), tl), 1.0 - tl))
    if np.max(width) > 1e-6:
        raise NumericsError(
            "optimal-spread root search did not converge; "
            "intensity family likely violates the strong assumptions"
        )
    return best


def _grid_search_spread(fam, gamma, d, lo, hi, n_grid=20001):
    """Maximizer of h(delta, d) for a tabulated curve on a uniform grid
    (smallest argmax on ties)."""
    g_lo = max(lo, fam.domain_lo())
    g_lo = max(g_lo, -PROBE_HALF_WIDTH) if not math.isfinite(lo) else g_lo
    g_hi = min(hi, fam.domain_hi())
    g_hi = min(g_hi, PROBE_HALF_WIDTH) if not math.isfinite(hi) else g_hi
    grid = np.linspace(g_lo, g_hi, n_grid)
    lam = np.asarray(eval_intensity(fam, grid))
    d_flat = np.asarray(d, dtype=float).ravel()
    idx = np.empty(d_flat.shape, dtype=np.intp)
    # a block of d values at a time keeps the (block, n_grid) table small
    for start in range(0, d_flat.size, _GRID_BLOCK):
        block = d_flat[start : start + _GRID_BLOCK, None]
        h = lam * np.asarray(utility(gamma, grid + block))
        idx[start : start + _GRID_BLOCK] = np.argmax(h, axis=-1)  # first maximizer
    return grid[idx].reshape(np.shape(d))


def _fixed_point_spread(fam: IntensityFamily, gamma: float, d: np.ndarray, bounds):
    """Maximizer at the array ``d`` for a smooth curve: the bounds outside
    the threshold window, the fixed point found by ``_solve_fixed_point``
    inside it."""
    lo, hi = bounds
    cap, floor = spread_thresholds(fam, gamma, bounds)
    interior = (d > cap) & (d < floor)
    out = np.where(d <= cap, hi, lo).astype(float)
    if np.any(interior):
        out[interior] = _solve_fixed_point(family_at(fam, interior, d.shape), gamma, d[interior], lo, hi)
    return np.clip(out, lo, hi)


def optimal_spread(fam: IntensityFamily, gamma: float, d, bounds: tuple[float, float]):
    """Spread maximizing lam(delta) * U_gamma(delta + d) over [bounds].

    Interior solutions solve the fixed point
        delta = -U_gamma^{-1}(lam(delta)/lam'(delta)) - d,
    clamped at the bounds outside the threshold window.  Exponential curves
    admit a closed form (the percentage sensitivity lam'/lam is constant);
    other smooth families use a bracketed Chandrupatla root search,
    tabulated curves use grid search.  Per-element parameters broadcast
    against ``d``.  Every element is solved on its own, so an array call
    equals the calls at each of its elements and curves, bit for bit.
    """
    lo, hi = bounds
    if fam.kind == "exponential":
        margin = -utility_inverse(gamma, -1.0 / fam.params[1])
        out = np.clip(margin - np.asarray(d, dtype=float), lo, hi)
        return float(out) if out.ndim == 0 else out
    scalar = np.ndim(d) == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    if fam.kind == "tabulated":
        out = np.clip(_grid_search_spread(fam, gamma, d_arr, lo, hi), lo, hi)
    else:
        out = _fixed_point_spread(fam, gamma, d_arr, bounds)
    return float(out[0]) if scalar else out.reshape(np.shape(d))


def side_value(fam: IntensityFamily, gamma: float, delta, d):
    """h(delta, d) = lam(delta) * U_gamma(delta + d)."""
    return np.asarray(eval_intensity(fam, delta)) * np.asarray(utility(gamma, np.asarray(delta) + np.asarray(d)))


def hamiltonian_value(fam, gamma, d, bounds):
    """H(d) = sup_delta h(delta, d) over [bounds]; the ODE/PIDE right-hand
    sides' Hamiltonian term."""
    delta = optimal_spread(fam, gamma, d, bounds)
    return side_value(fam, gamma, delta, d)

