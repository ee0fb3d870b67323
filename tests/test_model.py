import math

import numpy as np
import pytest

from regimemm.errors import ConfigError, UnsupportedConfigError
from regimemm.intensity import IntensityFamily
from regimemm.model import (
    RegimeSpec,
    format_config,
    parse_config,
    table1_spec,
    two_regime_reduction,
    validate,
    with_params,
)


class TestValidate:
    def test_standing_spec_is_valid(self):
        assert validate(table1_spec()) == []

    def test_generator_row_sum(self):
        spec = with_params(table1_spec(), generator_Q=np.array([[-5.0, 5.1], [5.0, -5.0]]))
        assert any("row sum" in v for v in validate(spec))

    def test_negative_off_diagonal(self):
        spec = with_params(table1_spec(), generator_Q=np.array([[1.0, -1.0], [5.0, -5.0]]))
        msgs = validate(spec)
        assert any("off-diagonal" in v for v in msgs)
        assert any("diagonal" in v for v in msgs)

    def test_unbounded_inventory_needs_risk_neutrality(self):
        spec = with_params(
            table1_spec(),
            inventory_cap_Nstar=math.inf,
            risk_aversion_gamma=0.5,
            running_penalty_zeta=0.0,
            terminal_cost_c=0.0,
        )
        assert any("unbounded inventory requires" in v for v in validate(spec))

    def test_unbounded_inventory_risk_neutral_ok(self):
        spec = with_params(
            table1_spec(), inventory_cap_Nstar=math.inf, running_penalty_zeta=0.0
        )
        assert validate(spec) == []

    def test_filter_must_be_interior(self):
        spec = with_params(table1_spec(), initial_filter_mu0=np.array([1.0, 0.0]))
        assert any("strictly in (0, 1)" in v for v in validate(spec))

    def test_filter_must_sum_to_one(self):
        spec = with_params(table1_spec(), initial_filter_mu0=np.array([0.5, 0.6]))
        assert any("sum to 1" in v for v in validate(spec))

    def test_spread_bounds_ordered(self):
        spec = with_params(table1_spec(), spread_lo=1.0, spread_hi=-1.0)
        assert any("spread_lo" in v for v in validate(spec))

    def test_inventory_within_cap(self):
        spec = with_params(table1_spec(), initial_inventory_n0=7)
        assert any("initial_inventory_n0" in v for v in validate(spec))

    def test_intensity_violations_reported_with_regime(self):
        bad = IntensityFamily.tabulated([-10.0, 0.0, 10.0], [1.0, 2.0, 3.0])
        spec = with_params(
            table1_spec(),
            regimes=(
                RegimeSpec("bad", bad, bad),
                table1_spec().regimes[1],
            ),
        )
        msgs = validate(spec)
        assert any(v.startswith("regime 1") and "decreasing" in v for v in msgs)

    def test_idempotent(self):
        spec = with_params(table1_spec(), spread_lo=2.0)
        assert validate(spec) == validate(spec)


class TestTwoRegimeReduction:
    def test_table1_values(self):
        red = two_regime_reduction(table1_spec())
        assert (red.lam, red.m) == (IntensityFamily.exponential(2.0, 25.0), 5.0)
        assert (red.q11, red.q21) == (-5.0, 5.0)

    def test_reduced_functions(self):
        red = two_regime_reduction(table1_spec())
        assert red.q_hat(0.5) == 0.0
        assert red.m_hat(0.5) == 3.0
        assert red.w(0.5) == 1.0
        assert red.q_hat(0.0) == 5.0 and red.m_hat(0.0) == 5.0 and red.w(0.0) == 0.0
        assert red.q_hat(1.0) == -5.0 and red.m_hat(1.0) == 1.0 and red.w(1.0) == 0.0

    def test_rejects_three_regimes(self):
        base = table1_spec()
        spec = with_params(
            base,
            regimes=base.regimes + (base.regimes[1],),
            generator_Q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]),
            initial_filter_mu0=np.array([0.4, 0.3, 0.3]),
        )
        with pytest.raises(UnsupportedConfigError, match="k = 2"):
            two_regime_reduction(spec)

    def test_rejects_risk_aversion(self):
        spec = with_params(table1_spec(), risk_aversion_gamma=0.2)
        with pytest.raises(UnsupportedConfigError, match="gamma"):
            two_regime_reduction(spec)

    def test_rejects_non_exponential(self):
        log = IntensityFamily.logistic(2.0, 25.0, 1.0)
        base = table1_spec()
        spec = with_params(base, regimes=(RegimeSpec("x", log, log), base.regimes[1]))
        with pytest.raises(UnsupportedConfigError, match="exponential"):
            two_regime_reduction(spec)

    def test_rejects_mismatched_decay(self):
        lam2 = IntensityFamily.exponential(10.0, 20.0)
        base = table1_spec()
        spec = with_params(base, regimes=(base.regimes[0], RegimeSpec("g", lam2, lam2)))
        with pytest.raises(UnsupportedConfigError, match="decay rate"):
            two_regime_reduction(spec)


class TestConfigFormat:
    def test_round_trip(self):
        spec = table1_spec(terminal_cost_c=0.01)
        text = format_config(spec)
        back = parse_config(text)
        assert validate(back) == []
        np.testing.assert_array_equal(back.generator_Q, spec.generator_Q)
        np.testing.assert_array_equal(back.initial_filter_mu0, spec.initial_filter_mu0)
        assert back.terminal_cost_c == spec.terminal_cost_c
        assert back.regimes[1].ask_intensity == spec.regimes[1].ask_intensity
        assert format_config(back) == text

    def test_unbounded_markers(self):
        spec = with_params(
            table1_spec(),
            inventory_cap_Nstar=math.inf,
            running_penalty_zeta=0.0,
            spread_lo=-math.inf,
            spread_hi=math.inf,
        )
        back = parse_config(format_config(spec))
        assert math.isinf(back.inventory_cap_Nstar)
        assert back.spread_lo == -math.inf and back.spread_hi == math.inf
        assert validate(back) == []

    def test_missing_key_reports_key(self):
        text = format_config(table1_spec())
        text = "\n".join(l for l in text.splitlines() if not l.startswith("vol_sigma"))
        with pytest.raises(ConfigError, match="vol_sigma"):
            parse_config(text)

    def test_bad_value_reports_line_and_key(self):
        text = format_config(table1_spec()).replace("vol_sigma = 0.1", "vol_sigma = zebra")
        lineno = next(
            i for i, l in enumerate(text.splitlines(), start=1) if l.startswith("vol_sigma")
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == "vol_sigma"
        assert err.value.line == lineno

    def test_unknown_key_rejected(self):
        text = format_config(table1_spec()) + "mystery_knob = 3\n"
        with pytest.raises(ConfigError, match="mystery_knob"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = format_config(table1_spec()) + "drift_mu = 1\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_regime_indices_must_be_contiguous(self):
        text = format_config(table1_spec()).replace("regime.2.", "regime.3.")
        with pytest.raises(ConfigError, match="regime indices"):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + format_config(table1_spec())
        assert validate(parse_config(text)) == []

    def test_bad_intensity_kind(self):
        text = format_config(table1_spec()).replace(
            "regime.1.bid_intensity = exponential", "regime.1.bid_intensity = mystery"
        )
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(text)


class TestSpecHelpers:
    def test_inventory_levels(self):
        np.testing.assert_array_equal(table1_spec().inventory_levels(), np.arange(-3, 4))

    def test_gates(self):
        spec = table1_spec()
        assert spec.bid_active(2) and not spec.bid_active(3)
        assert spec.ask_active(-2) and not spec.ask_active(-3)

    def test_spec_is_immutable(self):
        spec = table1_spec()
        with pytest.raises(Exception):
            spec.drift_mu = 1.0
        with pytest.raises(Exception):
            spec.generator_Q[0, 0] = 1.0
