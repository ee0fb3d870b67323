"""Optimal market-making spread policies under a hidden market regime.

Solvers for the full- and partial-information dynamic-programming systems,
the exact regime filter, and a thinning-based Monte Carlo simulator that
validates policies against the solved value surfaces.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericsError, UnsupportedConfigError
from .intensity import (
    STUB_SPREAD,
    IntensityFamily,
    eval_intensity,
    optimal_spread,
    spread_thresholds,
    utility,
    utility_inverse,
)
from .model import (
    ModelSpec,
    RegimeSpec,
    TwoRegimeParams,
    format_config,
    load_config,
    parse_config,
    table1_spec,
    two_regime_reduction,
    validate,
    with_params,
)
from .filtering import (
    ObservableRates,
    attractor,
    drift,
    jump_update,
    observable_rates,
)
from .simulate import (
    FixedSpreadPolicy,
    FullInfoPolicy,
    MonteCarloSummary,
    PartialInfoPolicy,
    PathRecord,
    monte_carlo,
    simulate_path,
    simulate_with_regime,
)

__all__ = [
    "ConfigError",
    "NumericsError",
    "UnsupportedConfigError",
    "STUB_SPREAD",
    "IntensityFamily",
    "eval_intensity",
    "optimal_spread",
    "spread_thresholds",
    "utility",
    "utility_inverse",
    "ModelSpec",
    "RegimeSpec",
    "TwoRegimeParams",
    "format_config",
    "load_config",
    "parse_config",
    "table1_spec",
    "two_regime_reduction",
    "validate",
    "with_params",
    "ObservableRates",
    "attractor",
    "drift",
    "jump_update",
    "observable_rates",
    "FixedSpreadPolicy",
    "FullInfoPolicy",
    "MonteCarloSummary",
    "PartialInfoPolicy",
    "PathRecord",
    "monte_carlo",
    "simulate_path",
    "simulate_with_regime",
]
