import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from regimemm import hjb_full, hjb_partial
from regimemm.errors import ConfigError, UnsupportedConfigError
from regimemm.intensity import IntensityFamily
from regimemm.model import (
    CAP_DOMAIN,
    HORIZON_DOMAIN,
    ModelSpec,
    RegimeSpec,
    format_config,
    generator_violations,
    load_config,
    parse_config,
    table1_spec,
    two_regime_reduction,
    validate,
    with_params,
)
from regimemm.simulate import FixedSpreadPolicy, monte_carlo, simulate_path

FIXED = FixedSpreadPolicy(0.04, 0.04)


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

    def test_infinite_cap_rejected(self):
        # even in a risk-neutral market with no penalty: the cap is what
        # makes the dynamic-programming system finite
        for params in ({}, dict(running_penalty_zeta=0.0)):
            spec = with_params(table1_spec(), inventory_cap_Nstar=math.inf, **params)
            assert validate(spec) == ["inventory_cap_Nstar must be a positive integer"]

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310])
    def test_subnormal_risk_aversion_rejected(self, gamma):
        # gamma * c would lose its digits: U_gamma(0.04) read 0 at 5e-324
        spec = with_params(table1_spec(), risk_aversion_gamma=gamma)
        assert validate(spec) == ["risk_aversion_gamma: risk aversion must be 0 or at least 2.22507e-308"]
        assert validate(with_params(spec, risk_aversion_gamma=2.3e-308)) == []

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

    def test_flat_power_law_reported(self):
        # b = 0 leaves the curve's domain without a left end (-c / b)
        flat = IntensityFamily.power_law(1.0, 0.0, 1.0, 1.0)
        spec = with_params(table1_spec(), regimes=(RegimeSpec("flat", flat, flat), table1_spec().regimes[1]))
        assert "regime 1 (flat) bid intensity: power_law requires b > 0" in validate(spec)

    @pytest.mark.parametrize(
        "flat",
        [
            IntensityFamily.exponential(2.0, 0.0),
            IntensityFamily.logistic(2.0, 0.0, 1.0),
            IntensityFamily.arctan(2.0, 0.0, 1.0),
            IntensityFamily.power_law(2.0, 1.0, 11.0, 0.0),
            IntensityFamily.tabulated([-10.0, 10.0], [2.0, 2.0]),
        ],
        ids=lambda fam: fam.kind,
    )
    def test_flat_curve_reported(self, flat):
        # a curve that does not fall has no optimal spread; within finite
        # spread bounds no other check catches it
        base = table1_spec()
        spec = with_params(base, regimes=(RegimeSpec("flat", flat, flat), base.regimes[1]))
        msgs = validate(spec)
        reason = "intensity must fall across the spread range, not stay flat"
        assert msgs == [f"regime 1 (flat) bid intensity: {reason}", f"regime 1 (flat) ask intensity: {reason}"]

    @pytest.mark.parametrize("label", [" low", "low\n", "lo\nw", "lo\x85w", "lo\u2028w"])
    def test_label_must_be_one_config_line(self, label):
        lam = table1_spec().regimes[0].bid_intensity
        spec = with_params(table1_spec(), regimes=(RegimeSpec(label, lam, lam), table1_spec().regimes[1]))
        assert validate(spec) == ["regime 1 label must be one line without surrounding whitespace"]

    def test_idempotent(self):
        spec = with_params(table1_spec(), spread_lo=2.0)
        assert validate(spec) == validate(spec)


class TestCapContract:
    """A library caller that skips ``validate`` gets its message as a
    ``ValueError`` from every entry point, not a truncated or empty panel."""

    ENTRY_POINTS = {
        "inventory_levels": lambda spec: spec.inventory_levels(),
        "hjb_partial.Stepper": lambda spec: hjb_partial.Stepper(spec, 10),
        "hjb_partial.solve": lambda spec: hjb_partial.solve(spec, 10),
        "hjb_full.solve_constrained": lambda spec: hjb_full.solve_constrained(spec, 10),
        "monte_carlo": lambda spec: monte_carlo(spec, FIXED, 2, 1),
        "simulate_path": lambda spec: simulate_path(spec, FIXED, 1),
    }

    @pytest.mark.parametrize("cap", [math.inf, 2.5, 0, -1])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_cap_raises_validates_message(self, entry, cap):
        spec = with_params(table1_spec(), inventory_cap_Nstar=cap)
        assert validate(spec) == [CAP_DOMAIN]
        with pytest.raises(ValueError) as info:
            self.ENTRY_POINTS[entry](spec)
        assert str(info.value) == CAP_DOMAIN == "inventory_cap_Nstar must be a positive integer"


class TestHorizonContract:
    """Both solvers, the partial output grid and the Monte Carlo engine meet
    a horizon ``validate`` rejects with its message as a ``ValueError``,
    not a surface of NaNs, a ``NumericsError`` or paths that never end."""

    ENTRY_POINTS = {
        "hjb_partial.output_times": lambda spec: hjb_partial.output_times(spec.horizon_T, 10),
        "hjb_partial.solve": lambda spec: hjb_partial.solve(spec, 10),
        "hjb_full.solve_constrained": lambda spec: hjb_full.solve_constrained(spec, 10),
        "hjb_full.solve_constrained-search": lambda spec: hjb_full.solve_constrained(spec),
        "monte_carlo": lambda spec: monte_carlo(spec, FIXED, 2, 1),
        "simulate_path": lambda spec: simulate_path(spec, FIXED, 1),
    }

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_horizon_raises_validates_message(self, entry, horizon):
        spec = with_params(table1_spec(), horizon_T=horizon)
        (message,) = validate(spec)
        assert message == (HORIZON_DOMAIN if math.isfinite(horizon) else "horizon_T must be finite")
        with pytest.raises(ValueError) as info:
            self.ENTRY_POINTS[entry](spec)
        assert str(info.value) == message


class TestGeneratorContract:
    """A generator ``validate`` rejects reaches no solver, scheme or path:
    each entry point raises ``validate``'s first message as a plain
    ``ValueError``, and ``validate``'s messages are the predicate's."""

    ENTRY_POINTS = {
        "two_regime_reduction": two_regime_reduction,
        "hjb_partial.Stepper": lambda spec: hjb_partial.Stepper(spec, 10),
        "hjb_partial.solve": lambda spec: hjb_partial.solve(spec, 10),
        "hjb_full.solve_constrained": lambda spec: hjb_full.solve_constrained(spec, 10),
        "hjb_full.solve_constrained-search": lambda spec: hjb_full.solve_constrained(spec),
        "monte_carlo": lambda spec: monte_carlo(spec, FIXED, 2, 1),
        "simulate_path": lambda spec: simulate_path(spec, FIXED, 1),
    }
    GENERATORS = {
        "q11>0": [[1.0, -1.0], [5.0, -5.0]],
        "q21<0": [[-5.0, 5.0], [-1.0, 1.0]],
        "row-sum": [[-5.0, 4.0], [5.0, -5.0]],
        "nan": [[-5.0, 5.0], [math.nan, -5.0]],
        "3x3": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]],
    }

    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_generator_raises_validates_message(self, entry, generator):
        spec = with_params(table1_spec(), generator_Q=np.array(self.GENERATORS[generator]))
        violations = validate(spec)
        assert violations and violations == generator_violations(spec)
        with pytest.raises(ValueError) as info:
            self.ENTRY_POINTS[entry](spec)
        assert info.type is ValueError
        assert str(info.value) == violations[0]

    @pytest.mark.parametrize("q", [[[0.0, 0.0], [5.0, -5.0]], [[-5.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    def test_absorbing_regimes_are_valid(self, q):
        spec = with_params(table1_spec(), generator_Q=np.array(q))
        assert validate(spec) == generator_violations(spec) == []
        red = two_regime_reduction(spec)
        assert (red.q11, red.q21) == (q[0][0], q[1][0])


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
        spec = with_params(table1_spec(), spread_lo=-math.inf, spread_hi=math.inf)
        back = parse_config(format_config(spec))
        assert back.spread_lo == -math.inf and back.spread_hi == math.inf
        assert validate(back) == []

    @pytest.mark.parametrize(
        "name, params",
        [("table1.cfg", {}), ("table1_terminal_cost.cfg", {"terminal_cost_c": 0.01})],
        ids=["table1", "table1_terminal_cost"],
    )
    def test_shipped_config_is_the_standing_market(self, name, params):
        # the tests run table1_spec(); the CLI, the benchmark and the digest
        # tool run the file, so the two must be one market
        spec = load_config(Path(__file__).resolve().parent.parent / "configs" / name)
        assert format_config(spec) == format_config(table1_spec(**params))

    def test_unbounded_spelling_rejected(self):
        # "inf" is the one spelling of an infinite spread bound
        text = format_config(table1_spec()).replace("spread_hi = 10", "spread_hi = unbounded")
        with pytest.raises(ConfigError, match="could not parse value 'unbounded'") as err:
            parse_config(text)
        assert err.value.key == "spread_hi"

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


# -- properties ----------------------------------------------------------------

PROPERTY = settings(deadline=None, derandomize=True, database=None)
# the values a spec field may hold besides a valid one: zeros, NaN, +-inf,
# extremes and any other float
edges = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324]), st.floats())
finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
rates = st.floats(1e-3, 1e3)


def either(valid, wild):
    return st.one_of(valid, edges) if wild else valid


def families(wild):
    p = either(rates, wild)
    return st.one_of(
        st.builds(IntensityFamily.exponential, p, p),
        st.builds(IntensityFamily.logistic, p, p, p),
        st.builds(IntensityFamily.arctan, p, p, either(finite, wild)),
        st.builds(IntensityFamily.power_law, p, p, p, p),
        st.integers(2, 5).flatmap(
            lambda size: st.builds(
                IntensityFamily.tabulated,
                st.lists(either(st.floats(-20.0, 20.0), wild), min_size=size, max_size=size, unique=True).map(sorted),
                st.lists(p, min_size=size, max_size=size).map(lambda v: sorted(v, reverse=True)),
            )
        ),
    )


@st.composite
def specs(draw, wild):
    """Model specs.  With ``wild``, any field may hold any float (NaN and
    +-inf included), the generator and initial belief any array of up to
    three axes, and the regimes may be none; otherwise every field is drawn
    from the values ``validate`` accepts for it alone."""
    k = draw(st.integers(0 if wild else 1, 3))
    regimes = [
        RegimeSpec(draw(st.text(max_size=6)), draw(families(wild)), draw(families(wild)))
        for _ in range(k)
    ]
    k = max(k, 1)
    if wild and draw(st.booleans()):
        any_array = hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3), elements=edges)
        q, mu0 = draw(any_array), draw(any_array)
    else:
        q = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=k * k, max_size=k * k))).reshape(k, k)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        mu0 = w / w.sum() if k > 1 else np.array([1.0])
    penalty = either(nonnegative, wild)
    cap = st.floats(1.0, 1e300).map(lambda x: float(math.floor(x)))
    return ModelSpec(
        horizon_T=draw(either(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), wild)),
        drift_mu=draw(either(finite, wild)),
        vol_sigma=draw(either(nonnegative, wild)),
        risk_aversion_gamma=draw(penalty),
        running_penalty_zeta=draw(penalty),
        terminal_cost_c=draw(penalty),
        inventory_cap_Nstar=draw(either(st.one_of(st.integers(1, 6).map(float), cap), wild)),
        spread_lo=draw(either(st.one_of(st.floats(-10.0, 0.0), st.just(-math.inf)), wild)),
        spread_hi=draw(either(st.one_of(st.floats(0.1, 10.0), st.just(math.inf)), wild)),
        regimes=tuple(regimes),
        generator_Q=q,
        initial_filter_mu0=mu0,
        initial_inventory_n0=draw(st.one_of(st.integers(-3, 3), st.integers())),
        initial_cash_x0=draw(either(finite, wild)),
        initial_price_s0=draw(either(finite, wild)),
    )


def same_spec(a, b) -> bool:
    """Every field of two specs equal, floats to the bit."""

    def bits(x):
        return x if isinstance(x, int) else np.asarray(x, dtype=float).tobytes()

    scalars = [f.name for f in dataclasses.fields(ModelSpec) if f.name != "regimes"]
    if any(bits(getattr(a, name)) != bits(getattr(b, name)) for name in scalars):
        return False
    if np.shape(a.generator_Q) != np.shape(b.generator_Q) or a.n_regimes != b.n_regimes:
        return False
    return all(
        ra.label == rb.label
        and all(
            fa.kind == fb.kind and all(bits(pa) == bits(pb) for pa, pb in zip(fa.params, fb.params))
            for fa, fb in ((ra.bid_intensity, rb.bid_intensity), (ra.ask_intensity, rb.ask_intensity))
        )
        for ra, rb in zip(a.regimes, b.regimes)
    )


class TestProperties:
    @settings(PROPERTY, max_examples=200)
    @given(specs(wild=True))
    def test_validate_never_raises(self, spec):
        with np.errstate(all="ignore"):
            reasons = validate(spec)
        assert isinstance(reasons, list) and all(isinstance(r, str) for r in reasons)

    @settings(PROPERTY, max_examples=100)
    @given(specs(wild=False))
    def test_config_round_trip_of_every_valid_spec(self, spec):
        with np.errstate(all="ignore"):
            assume(validate(spec) == [])
        assert same_spec(parse_config(format_config(spec)), spec)
