"""Model parameters, validation, and configuration-file ingestion.

A :class:`ModelSpec` is the single source of truth for a run: market dynamics
(drift, volatility), preferences (risk aversion, running penalty, terminal
cost), constraints (inventory cap, spread bounds), the hidden-regime chain
(generator matrix, initial belief) and the per-regime intensity curves.
Specs are immutable after construction; ``validate`` reports every violated
invariant as data rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, UnsupportedConfigError
from .intensity import MIN_RISK_AVERSION, RISK_AVERSION_DOMAIN, IntensityFamily, family_violations

CAP_DOMAIN = "inventory_cap_Nstar must be a positive integer"
HORIZON_DOMAIN = "horizon_T must be strictly positive"


def _positive_integer(x) -> bool:
    return math.isfinite(x) and x == int(x) and x >= 1


def check_horizon(T) -> float:
    """``T`` as a float.  Raises ``ValueError`` with ``validate``'s message
    unless it is finite and > 0, so a library caller that skips ``validate``
    meets the same horizon contract as the CLI."""
    if not math.isfinite(T):
        raise ValueError("horizon_T must be finite")
    if not T > 0:
        raise ValueError(HORIZON_DOMAIN)
    return float(T)


def generator_violations(spec: ModelSpec) -> list[str]:
    """Every rule of a generator of the hidden chain that ``spec.generator_Q``
    breaks: it is k x k for the spec's k regimes, its entries are finite,
    each row sums to 0 within 1e-9, and its off-diagonal entries are >= 0
    and its diagonal entries <= 0 (within 1e-12).  A zero row, an absorbing
    regime, is valid.  ``validate`` reports these messages and
    ``check_generator`` raises the first."""
    q, k = spec.generator_Q, spec.n_regimes
    if q.shape != (k, k):
        return [f"generator_Q must be {k}x{k} to match the regimes"]
    if not np.all(np.isfinite(q)):
        return ["generator_Q entries must be finite"]
    out = []
    if np.any(np.abs(q.sum(axis=1)) > 1e-9):
        out.append("generator row sum nonzero (rows of Q must sum to 0)")
    off = q[~np.eye(k, dtype=bool)]
    if off.size and np.min(off) < 0:
        out.append("generator off-diagonal entries must be >= 0")
    if np.any(np.diag(q) > 1e-12):
        out.append("generator diagonal entries must be <= 0")
    return out


def check_generator(spec: ModelSpec) -> None:
    """Raises ``ValueError`` with the first of ``generator_violations``, so a
    library caller that skips ``validate`` meets the same generator contract
    as the CLI."""
    violations = generator_violations(spec)
    if violations:
        raise ValueError(violations[0])


@dataclass(frozen=True)
class RegimeSpec:
    """Label plus bid/ask intensity curves for one hidden-market regime."""

    label: str
    bid_intensity: IntensityFamily
    ask_intensity: IntensityFamily


@dataclass(frozen=True, eq=False)
class ModelSpec:
    horizon_T: float
    drift_mu: float
    vol_sigma: float
    risk_aversion_gamma: float
    running_penalty_zeta: float
    terminal_cost_c: float
    inventory_cap_Nstar: float  # positive integer
    spread_lo: float
    spread_hi: float
    regimes: tuple[RegimeSpec, ...]
    generator_Q: np.ndarray
    initial_filter_mu0: np.ndarray
    initial_inventory_n0: int = 0
    initial_cash_x0: float = 0.0
    initial_price_s0: float = 0.0

    def __post_init__(self):
        q = np.array(self.generator_Q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "generator_Q", q)
        mu0 = np.array(self.initial_filter_mu0, dtype=float)
        mu0.setflags(write=False)
        object.__setattr__(self, "initial_filter_mu0", mu0)
        object.__setattr__(self, "regimes", tuple(self.regimes))

    @property
    def n_regimes(self) -> int:
        return len(self.regimes)

    @property
    def spread_bounds(self) -> tuple[float, float]:
        return (self.spread_lo, self.spread_hi)

    def inventory_levels(self) -> np.ndarray:
        """All admissible inventories [-N*, N*].  Raises ``ValueError`` with
        ``validate``'s message unless the cap is a positive integer, so a
        library caller that skips ``validate`` meets the same contract as
        the CLI."""
        if not _positive_integer(self.inventory_cap_Nstar):
            raise ValueError(CAP_DOMAIN)
        n_star = int(self.inventory_cap_Nstar)
        return np.arange(-n_star, n_star + 1)

    def terminal_cost(self, n):
        return self.terminal_cost_c * np.square(n)

    def running_reward(self, n):
        """Drift gain less the inventory penalty, mu n - sigma^2 (zeta + gamma) n^2 / 2:
        the base term of both solvers' right-hand sides."""
        return self.drift_mu * n - 0.5 * self.vol_sigma**2 * n**2 * (
            self.running_penalty_zeta + self.risk_aversion_gamma
        )

    def bid_active(self, n) -> bool:
        """Buy side quotes only while n < N* (fills increase inventory)."""
        return n < self.inventory_cap_Nstar

    def ask_active(self, n) -> bool:
        """Sell side quotes only while -n < N* (fills decrease inventory)."""
        return -n < self.inventory_cap_Nstar


_NONNEGATIVE_FIELDS = ("vol_sigma", "risk_aversion_gamma", "running_penalty_zeta", "terminal_cost_c")
_FINITE_FIELDS = ("horizon_T", "drift_mu", *_NONNEGATIVE_FIELDS, "initial_cash_x0", "initial_price_s0")


def validate(spec: ModelSpec) -> list[str]:
    """Return every violated model invariant, with a readable reason each.

    Pure and idempotent; an empty list means every downstream operation can
    consume the spec without further parameter errors.  Every number must be
    finite except the spread bounds, which may be infinite.  The generator's
    messages come from ``generator_violations``.  The library's entry points
    raise the generator's, the cap's and the horizon's messages as
    ``ValueError``.
    """
    out: list[str] = []
    k = spec.n_regimes
    if k < 1:
        out.append("at least one regime is required")
        return out
    for name in _FINITE_FIELDS:
        value = getattr(spec, name)
        if not math.isfinite(value):
            out.append(f"{name} must be finite")
        elif name == "horizon_T" and not value > 0:
            out.append(HORIZON_DOMAIN)
        elif name in _NONNEGATIVE_FIELDS and value < 0:
            out.append(f"{name} must be >= 0")
        elif name == "risk_aversion_gamma" and not (value == 0.0 or value >= MIN_RISK_AVERSION):
            out.append(f"risk_aversion_gamma: {RISK_AVERSION_DOMAIN}")
    nan_bounds = [
        f"{name} must be a number or +-inf"
        for name in ("spread_lo", "spread_hi") if math.isnan(getattr(spec, name))
    ]
    out += nan_bounds
    if not (nan_bounds or spec.spread_lo < spec.spread_hi):
        out.append("spread_lo must be strictly below spread_hi")

    cap = spec.inventory_cap_Nstar
    if not _positive_integer(cap):
        out.append(CAP_DOMAIN)
    elif not -cap <= spec.initial_inventory_n0 <= cap:
        out.append("initial_inventory_n0 outside [-N*, N*]")

    out += generator_violations(spec)

    mu0 = spec.initial_filter_mu0
    if mu0.shape != (k,):
        out.append(f"initial_filter_mu0 must have length {k}")
    elif not np.all(np.isfinite(mu0)):
        out.append("initial_filter_mu0 entries must be finite")
    else:
        if abs(float(mu0.sum()) - 1.0) > 1e-12:
            out.append("initial_filter_mu0 must sum to 1 within 1e-12")
        if k == 1:
            if mu0[0] != 1.0:
                out.append("initial_filter_mu0 must be [1] for a single regime")
        elif np.any(mu0 <= 0.0) or np.any(mu0 >= 1.0):
            out.append("initial_filter_mu0 entries must lie strictly in (0, 1)")

    for idx, regime in enumerate(spec.regimes, start=1):
        # a label is one config line's value, which parse_config strips
        label = regime.label
        if label != label.strip() or "".join(label.splitlines()) != label:
            out.append(f"regime {idx} label must be one line without surrounding whitespace")

    if spec.spread_lo < spec.spread_hi:  # curve checks need a non-empty range
        for idx, regime in enumerate(spec.regimes, start=1):
            for side, fam in (("bid", regime.bid_intensity), ("ask", regime.ask_intensity)):
                try:
                    reasons = family_violations(
                        fam, spec.spread_lo, spec.spread_hi, spec.risk_aversion_gamma
                    )
                except ValueError as exc:
                    reasons = [str(exc)]
                for reason in reasons:
                    out.append(f"regime {idx} ({regime.label}) {side} intensity: {reason}")
    return out


# -- two-regime reduction ------------------------------------------------------


@dataclass(frozen=True)
class TwoRegimeParams:
    """Coefficients of the scalar-belief reduction for two-regime markets with
    symmetric, proportional exponential intensities (regime 1 = low liquidity).

    ``lam`` is regime 1's curve lam_1(d) = a e^{-b d}, the same on both
    sides; lam_2 = m lam_1 with m >= 1.
    """

    lam: IntensityFamily
    m: float
    q11: float
    q21: float

    def q_hat(self, pi):
        """Observable transition rate toward the low-liquidity regime."""
        return self.q11 * pi + self.q21 * (1.0 - pi)

    def m_hat(self, pi):
        """Observable intensity ratio over the low-liquidity regime."""
        return pi + (1.0 - pi) * self.m

    def w(self, pi):
        """Observable order-flow volatility weight (m-1) pi (1-pi)."""
        return (self.m - 1.0) * pi * (1.0 - pi)


def two_regime_reduction(spec: ModelSpec) -> TwoRegimeParams:
    """Extract (lam, m, q11, q21), or raise naming the unmet requirement.

    Raises ``ValueError`` with ``validate``'s message for a generator that
    ``generator_violations`` rejects, and ``UnsupportedConfigError`` for a
    valid market outside the reduction.  Any valid two-state generator
    reduces, absorbing regimes included: its q21 >= 0 and q11 <= 0."""
    check_generator(spec)
    if spec.n_regimes != 2:
        raise UnsupportedConfigError(
            f"two-regime reduction requires k = 2 regimes, got {spec.n_regimes}"
        )
    if spec.risk_aversion_gamma != 0.0:
        raise UnsupportedConfigError("two-regime reduction requires gamma = 0")
    fams = []
    for idx, regime in enumerate(spec.regimes, start=1):
        for side, fam in (("bid", regime.bid_intensity), ("ask", regime.ask_intensity)):
            if fam.kind != "exponential":
                raise UnsupportedConfigError(
                    f"regime {idx} {side} intensity must be exponential"
                )
            fams.append(fam.params)
    (a1b, b1b), (a1a, b1a), (a2b, b2b), (a2a, b2a) = fams
    if (a1b, b1b) != (a1a, b1a) or (a2b, b2b) != (a2a, b2a):
        raise UnsupportedConfigError("bid and ask intensities must match within each regime")
    if not (b1b == b2b):
        raise UnsupportedConfigError("regimes must share the decay rate b (proportional curves)")
    if a1b <= 0.0 and a2b <= 0.0:
        m = 1.0  # degenerate no-orders market: treated as proportional with m = 1
    else:
        if a1b <= 0.0:
            raise UnsupportedConfigError("regime-1 amplitude must be positive")
        m = a2b / a1b
        if m < 1.0:
            raise UnsupportedConfigError(
                "regime 2 must be the high-liquidity regime (amplitude ratio m >= 1)"
            )
    return TwoRegimeParams(
        lam=spec.regimes[0].bid_intensity,
        m=float(m),
        q11=float(spec.generator_Q[0, 0]),
        q21=float(spec.generator_Q[1, 0]),
    )


# -- configuration files -------------------------------------------------------

_SCALAR_FIELDS: dict[str, Callable[[str], object]] = {
    "horizon_T": float,
    "drift_mu": float,
    "vol_sigma": float,
    "risk_aversion_gamma": float,
    "running_penalty_zeta": float,
    "terminal_cost_c": float,
    "initial_inventory_n0": int,
    "initial_cash_x0": float,
    "initial_price_s0": float,
}


def _parse_extended(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    if t in ("-inf", "-infinity"):
        return -math.inf
    return float(text)


def _parse_intensity(text: str, line: int, key: str) -> IntensityFamily:
    parts = text.split()
    if not parts:
        raise ConfigError("empty intensity definition", line=line, key=key)
    kind, args = parts[0], parts[1:]
    try:
        if kind == "exponential":
            return IntensityFamily.exponential(*map(float, args))
        if kind == "logistic":
            return IntensityFamily.logistic(*map(float, args))
        if kind == "arctan":
            return IntensityFamily.arctan(*map(float, args))
        if kind == "power_law":
            return IntensityFamily.power_law(*map(float, args))
        if kind == "tabulated":
            pairs = [p.split(":") for p in args]
            return IntensityFamily.tabulated(
                [float(p[0]) for p in pairs], [float(p[1]) for p in pairs]
            )
    except ConfigError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad intensity parameters: {exc}", line=line, key=key) from None
    raise ConfigError(f"unknown intensity kind {kind!r}", line=line, key=key)


def parse_config(text: str) -> ModelSpec:
    """Parse the flat key-value model format; errors carry line and key.

    Keys are the ModelSpec field names; regimes appear as indexed groups
    ``regime.<i>.label`` / ``regime.<i>.bid_intensity`` / ``...ask_intensity``;
    vectors are whitespace-separated, matrix rows are separated by ';'.
    """
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError("missing key before '='", line=lineno)
        if key in values:
            raise ConfigError("duplicate key", line=lineno, key=key)
        values[key] = (val, lineno)

    def take(key: str) -> tuple[str, int]:
        if key not in values:
            raise ConfigError("missing required key", key=key)
        return values.pop(key)

    kwargs: dict[str, object] = {}
    for key, conv in _SCALAR_FIELDS.items():
        val, lineno = take(key)
        try:
            kwargs[key] = conv(val)
        except ValueError:
            raise ConfigError(f"could not parse value {val!r}", line=lineno, key=key) from None

    for key in ("spread_lo", "spread_hi", "inventory_cap_Nstar"):
        val, lineno = take(key)
        try:
            kwargs[key] = _parse_extended(val)
        except ValueError:
            raise ConfigError(f"could not parse value {val!r}", line=lineno, key=key) from None

    val, lineno = take("generator_Q")
    try:
        rows = [[float(x) for x in row.split()] for row in val.split(";")]
        kwargs["generator_Q"] = np.array(rows, dtype=float)
    except ValueError:
        raise ConfigError("could not parse matrix rows", line=lineno, key="generator_Q") from None

    val, lineno = take("initial_filter_mu0")
    try:
        kwargs["initial_filter_mu0"] = np.array([float(x) for x in val.split()], dtype=float)
    except ValueError:
        raise ConfigError("could not parse vector", line=lineno, key="initial_filter_mu0") from None

    regime_keys = sorted(k for k in values if k.startswith("regime."))
    groups: dict[int, dict[str, tuple[str, int]]] = {}
    for key in regime_keys:
        parts = key.split(".")
        if len(parts) != 3 or not parts[1].isdigit():
            raise ConfigError("expected regime.<index>.<field>", line=values[key][1], key=key)
        groups.setdefault(int(parts[1]), {})[parts[2]] = values.pop(key)
    if not groups:
        raise ConfigError("no regimes defined", key="regime.1.label")
    if sorted(groups) != list(range(1, len(groups) + 1)):
        raise ConfigError(f"regime indices must be 1..{len(groups)}", key="regime.*")

    regimes = []
    for idx in sorted(groups):
        grp = groups[idx]
        for fld in ("label", "bid_intensity", "ask_intensity"):
            if fld not in grp:
                raise ConfigError("missing regime field", key=f"regime.{idx}.{fld}")
        label = grp["label"][0]
        bid = _parse_intensity(*grp["bid_intensity"], key=f"regime.{idx}.bid_intensity")
        ask = _parse_intensity(*grp["ask_intensity"], key=f"regime.{idx}.ask_intensity")
        regimes.append(RegimeSpec(label=label, bid_intensity=bid, ask_intensity=ask))
    kwargs["regimes"] = tuple(regimes)

    if values:
        key = sorted(values)[0]
        raise ConfigError("unknown key", line=values[key][1], key=key)
    return ModelSpec(**kwargs)


def load_config(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def format_config(spec: ModelSpec) -> str:
    """Serialize a spec back to the flat key-value format (17 significant digits)."""

    def num(x: float) -> str:
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")

    lines = []
    for key in _SCALAR_FIELDS:
        v = getattr(spec, key)
        lines.append(f"{key} = {v if isinstance(v, int) else num(v)}")
    lines.append(f"inventory_cap_Nstar = {num(spec.inventory_cap_Nstar)}")
    lines.append(f"spread_lo = {num(spec.spread_lo)}")
    lines.append(f"spread_hi = {num(spec.spread_hi)}")
    lines.append("generator_Q = " + " ; ".join(" ".join(num(x) for x in row) for row in spec.generator_Q))
    lines.append("initial_filter_mu0 = " + " ".join(num(x) for x in spec.initial_filter_mu0))
    for idx, regime in enumerate(spec.regimes, start=1):
        lines.append(f"regime.{idx}.label = {regime.label}")
        for side, fam in (("bid", regime.bid_intensity), ("ask", regime.ask_intensity)):
            if fam.kind == "tabulated":
                knots, vals = fam.params
                body = " ".join(f"{num(k)}:{num(v)}" for k, v in zip(knots, vals))
            else:
                body = " ".join(num(p) for p in fam.params)
            lines.append(f"regime.{idx}.{side}_intensity = {fam.kind} {body}")
    return "\n".join(lines) + "\n"


def table1_spec(
    *,
    horizon_T: float = 1.0,
    terminal_cost_c: float = 0.0,
    drift_mu: float = 0.0,
    initial_filter: tuple[float, float] = (0.5, 0.5),
) -> ModelSpec:
    """The standing two-regime test market: a = 2, b = 25, m = 5, N* = 3,
    sigma = 0.1, zeta = 0.1, transition rates 5, spread bounds +-10."""
    lam1 = IntensityFamily.exponential(2.0, 25.0)
    lam2 = IntensityFamily.exponential(10.0, 25.0)
    return ModelSpec(
        horizon_T=horizon_T,
        drift_mu=drift_mu,
        vol_sigma=0.1,
        risk_aversion_gamma=0.0,
        running_penalty_zeta=0.1,
        terminal_cost_c=terminal_cost_c,
        inventory_cap_Nstar=3,
        spread_lo=-10.0,
        spread_hi=10.0,
        regimes=(
            RegimeSpec("low-liquidity", lam1, lam1),
            RegimeSpec("high-liquidity", lam2, lam2),
        ),
        generator_Q=np.array([[-5.0, 5.0], [5.0, -5.0]]),
        initial_filter_mu0=np.array(initial_filter),
        initial_inventory_n0=0,
        initial_cash_x0=0.0,
        initial_price_s0=100.0,
    )


def with_params(spec: ModelSpec, **changes) -> ModelSpec:
    """Functional update helper (specs are immutable)."""
    return replace(spec, **changes)
