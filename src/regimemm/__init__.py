"""Optimal market-making spread policies under a hidden market regime.

Solvers for the full- and partial-information dynamic-programming systems,
the exact regime filter, and a thinning-based Monte Carlo simulator that
validates policies against the solved value surfaces.

``import regimemm`` loads ``errors``, ``intensity`` and ``model``, all that
``load_config`` and ``validate`` need.  Every other submodule, and the
public names of ``filtering`` and ``simulate``, are imported on first use
through the module ``__getattr__`` (PEP 562), so a process that only reads
a config does not compile the solvers and the simulator; ``cli`` likewise
imports each command's modules when the command runs.
"""

from importlib import import_module

from . import errors, intensity, model  # what load_config and validate need

__version__ = "0.1.0"

# the public names each submodule defines, in __all__'s order
_EXPORTS = {
    "errors": ("ConfigError", "NumericsError", "UnsupportedConfigError"),
    "intensity": (
        "STUB_SPREAD",
        "IntensityFamily",
        "eval_intensity",
        "optimal_spread",
        "spread_thresholds",
        "utility",
        "utility_inverse",
    ),
    "model": (
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
    ),
    "filtering": ("ObservableRates", "attractor", "drift", "jump_update", "observable_rates"),
    "simulate": (
        "FixedSpreadPolicy",
        "FullInfoPolicy",
        "MonteCarloSummary",
        "PartialInfoPolicy",
        "PathRecord",
        "monte_carlo",
        "simulate_path",
        "simulate_with_regime",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name):
    """A public name or a submodule, imported on first use and bound here."""
    if name in _OWNERS:
        value = getattr(import_module(f".{_OWNERS[name]}", __name__), name)
    else:
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":  # a submodule's own import failed
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
