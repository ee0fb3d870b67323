"""Order-arrival intensity curves and the per-regime spread optimization.

An intensity family is a positive, decreasing curve ``lam(delta)`` giving the
client order-arrival rate as a function of the quoted spread.  The module
provides the curve calculus (values, first derivatives, validity checks), the
CARA utility pair ``U_gamma`` / ``U_gamma^{-1}``, and the two quantities the
solvers need from

    h(delta, d) = lam(delta) * U_gamma(delta + d):

its maximizer over admissible spreads, ``optimal_spread`` (closed form for
exponential curves, threshold-plus-bisection fixed point for the other smooth
families, grid search for tabulated ones), and the Hamiltonian
``H(d) = sup_delta h(delta, d)``, ``hamiltonian_value``.

All operations broadcast over numpy arrays of ``delta`` or ``d``; families are
immutable and safe to share across workers.
"""

from __future__ import annotations

import math
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
_FIXED_POINT_MAX_ITER = 200


def is_stub(delta):
    """True where a spread is the do-not-quote sentinel (+inf); broadcasts."""
    return np.isposinf(delta)


@dataclass(frozen=True)
class IntensityFamily:
    """One regime's decreasing intensity curve with analytic derivatives.

    kind/params:
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
    return out if isinstance(delta, np.ndarray) else float(out)


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
    return out if isinstance(delta, np.ndarray) else float(out)


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
    """Check positivity, monotone decay and (if hi is infinite, gamma = 0) the
    fast-decay tail condition. Returns human-readable violations, empty if ok."""
    out: list[str] = []
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
    if math.isinf(hi) and fam.kind != "tabulated":
        # tail condition: delta^{1{gamma=0}} * lam(delta) -> 0 as delta -> inf,
        # probed by requiring clear decay between two far-out points
        power = 1.0 if gamma == 0.0 else 0.0
        tail = np.array([1e3, 1e6])
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
    yield -inf / +inf respectively (no capping / no flooring ever).
    """
    lo, hi = bounds
    cap = -math.inf if math.isinf(hi) else float(_neg_uinv_ratio(fam, gamma, hi) - hi)
    floor = math.inf if math.isinf(lo) else float(_neg_uinv_ratio(fam, gamma, lo) - lo)
    return cap, floor


def _fixed_point_residual(fam, gamma, delta, d):
    """f(delta, d) = delta + U^{-1}(lam/lam') + d; strictly increasing in delta."""
    return np.asarray(delta) - _neg_uinv_ratio(fam, gamma, delta) + np.asarray(d)


def _bisect_fixed_point(fam, gamma, d, lo, hi):
    """Vectorized bisection of f(delta, d) = 0 over [lo, hi] per element.

    Assumes a sign change is already bracketed.  Bounds may be +-inf, in
    which case the bracket is grown geometrically from [-1, 1] first.
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
    for _ in range(_FIXED_POINT_MAX_ITER):
        mid = 0.5 * (lo_v + hi_v)
        pos = _fixed_point_residual(fam, gamma, mid, d) > 0.0
        hi_v = np.where(pos, mid, hi_v)
        lo_v = np.where(pos, lo_v, mid)
        if np.max(hi_v - lo_v) < _FIXED_POINT_TOL:
            break
    else:
        if np.max(hi_v - lo_v) > 1e-6:
            raise NumericsError(
                "optimal-spread bisection did not converge; "
                "intensity family likely violates the strong assumptions"
            )
    return 0.5 * (lo_v + hi_v)


def _grid_search_spread(fam, gamma, d, lo, hi, n_grid=20001):
    """Maximizer of h(delta, d) for a tabulated curve on a uniform grid
    (smallest argmax on ties)."""
    g_lo = max(lo, fam.domain_lo())
    g_lo = max(g_lo, -PROBE_HALF_WIDTH) if not math.isfinite(lo) else g_lo
    g_hi = min(hi, fam.domain_hi())
    g_hi = min(g_hi, PROBE_HALF_WIDTH) if not math.isfinite(hi) else g_hi
    grid = np.linspace(g_lo, g_hi, n_grid)
    lam = np.asarray(eval_intensity(fam, grid))
    d_arr = np.asarray(d, dtype=float)
    h = lam * np.asarray(utility(gamma, grid + d_arr[..., None]))
    idx = np.argmax(h, axis=-1)  # argmax returns the first (smallest) maximizer
    return grid[idx]


def _fixed_point_spread(fam: IntensityFamily, gamma: float, d: np.ndarray, bounds):
    """Maximizer at the 1-d array ``d`` for a smooth curve: the bounds outside
    the threshold window, the bisected fixed point inside it."""
    lo, hi = bounds
    cap, floor = spread_thresholds(fam, gamma, bounds)
    interior = (d > cap) & (d < floor)
    out = np.where(d <= cap, hi, lo).astype(float)
    if np.any(interior):
        out[interior] = _bisect_fixed_point(fam, gamma, d[interior], lo, hi)
    return np.clip(out, lo, hi)


def optimal_spread(fam: IntensityFamily, gamma: float, d, bounds: tuple[float, float]):
    """Spread maximizing lam(delta) * U_gamma(delta + d) over [bounds].

    Interior solutions solve the fixed point
        delta = -U_gamma^{-1}(lam(delta)/lam'(delta)) - d,
    clamped at the bounds outside the threshold window.  Exponential curves
    admit a closed form (the percentage sensitivity lam'/lam is constant);
    other smooth families use bisection, tabulated curves use grid search.
    """
    lo, hi = bounds
    scalar = np.ndim(d) == 0
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    if fam.kind == "tabulated":
        out = np.clip(_grid_search_spread(fam, gamma, d_arr, lo, hi), lo, hi)
    elif fam.kind == "exponential":
        margin = -utility_inverse(gamma, -1.0 / fam.params[1])
        out = np.clip(margin - d_arr, lo, hi)
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

