import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    hamiltonian_closed_form,
    meets_strong_assumptions,
    optimal_spread_bisection,
)

from regimemm import intensity
from regimemm.intensity import (
    MIN_RISK_AVERSION,
    IntensityFamily,
    _fixed_point_spread,
    _solve_fixed_point,
    eval_curvature,
    eval_derivative,
    eval_intensity,
    family_at,
    family_violations,
    hamiltonian_value,
    optimal_spread,
    prepared,
    spread_thresholds,
    utility,
    utility_inverse,
)

EXP = IntensityFamily.exponential(2.0, 25.0)
UNBOUNDED = (-math.inf, math.inf)
TABLE1_BOUNDS = (-10.0, 10.0)

FAMILIES = [
    EXP,
    IntensityFamily.logistic(2.0, 25.0, 1.5),
    IntensityFamily.arctan(1.0, 10.0, 0.5),
    IntensityFamily.power_law(2.0, 5.0, 1.0, 2.0),
]


def grid_search_oracle(fam, gamma, d, lo=-1.0, hi=1.0, step=1e-5):
    """Independent maximizer of lam(delta) U_gamma(delta+d) by dense search."""
    deltas = np.arange(lo, hi + step, step)
    vals = eval_intensity(fam, deltas) * np.asarray(utility(gamma, deltas + d))
    i = int(np.argmax(vals))
    return float(deltas[i]), float(vals[i])


def bound_flag(delta, bounds):
    """Where the maximizer sits: 'floored' at or below the lower bound,
    'capped' at or above the upper one, 'interior' strictly between."""
    lo, hi = bounds
    if delta >= hi:
        return "capped"
    if delta <= lo:
        return "floored"
    return "interior"


def searched_spread(fam, gamma, d, bounds):
    """The threshold-window fixed-point maximizer at one scalar d, for any
    smooth family including the exponential one."""
    return float(_fixed_point_spread(fam, gamma, np.array([d]), bounds)[0])


class TestEval:
    def test_exponential_at_zero_is_a(self):
        assert eval_intensity(EXP, 0.0) == pytest.approx(2.0, abs=0)

    def test_exponential_at_one_over_b(self):
        # a * exp(-b * 0.04) = 2 / e
        assert eval_intensity(EXP, 0.04) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_monotone_decreasing(self, fam):
        lo = max(-0.15, fam.domain_lo() + 1e-6)
        deltas = np.linspace(lo, 0.5, 400)
        vals = eval_intensity(fam, deltas)
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals > 0)

    def test_power_law_domain_error(self):
        fam = IntensityFamily.power_law(2.0, 5.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            eval_intensity(fam, -0.25)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_derivatives_match_finite_differences(self, fam):
        lo = max(-0.1, fam.domain_lo() + 1e-3)
        deltas = np.linspace(lo, 0.3, 23)
        h = 1e-6
        fd = (eval_intensity(fam, deltas + h) - eval_intensity(fam, deltas - h)) / (2 * h)
        np.testing.assert_allclose(eval_derivative(fam, deltas), fd, rtol=1e-6, atol=1e-8)
        fd2 = (
            eval_intensity(fam, deltas + h)
            - 2 * eval_intensity(fam, deltas)
            + eval_intensity(fam, deltas - h)
        ) / h**2
        np.testing.assert_allclose(eval_curvature(fam, deltas), fd2, rtol=2e-3, atol=1e-4)

    @pytest.mark.parametrize("fam", FAMILIES + [IntensityFamily.logistic(10.0, 25.0, 1.0)])
    def test_curvature_matches_differences_of_the_derivative(self, fam):
        lo = max(-0.5, fam.domain_lo() + 1e-2)
        deltas = np.linspace(lo, 1.0, 31)
        h = 1e-6
        fd = (eval_derivative(fam, deltas + h) - eval_derivative(fam, deltas - h)) / (2 * h)
        scale = np.max(np.abs(fd))
        np.testing.assert_allclose(eval_curvature(fam, deltas), fd, rtol=1e-6, atol=1e-8 * scale)
        assert type(eval_curvature(fam, 0.3)) is float

    @pytest.mark.parametrize("kind", ["logistic", "arctan"])
    def test_curvature_takes_per_element_parameters(self, kind):
        curves = PER_ELEMENT_CURVES[kind]
        fam = stacked(curves)
        deltas = np.linspace(-0.5, 1.0, 31)[:, None]  # column j holds curve j
        out = eval_curvature(fam, deltas)
        assert out.shape == (31, len(curves))
        h = 1e-6
        fd = (eval_derivative(fam, deltas + h) - eval_derivative(fam, deltas - h)) / (2 * h)
        np.testing.assert_allclose(out, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(fd)))
        for j, curve in enumerate(curves):
            assert np.array_equal(out[:, j], eval_curvature(curve, deltas[:, 0]))

    def test_curvature_stays_finite_far_out(self):
        # the logistic's (1 + e)^3 overflows at b delta ~ 237; its factors do not
        fam = IntensityFamily.logistic(2.0, 25.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < eval_curvature(fam, 10.0) < 1e-100

    def test_tabulated_has_no_curvature(self):
        knots = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            eval_curvature(IntensityFamily.tabulated(knots, 2.0 - knots), 0.0)

    def test_tabulated_interpolates(self):
        knots = np.linspace(-0.5, 0.5, 2001)
        fam = IntensityFamily.tabulated(knots, eval_intensity(EXP, knots))
        assert eval_intensity(fam, 0.04) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-6)
        d1 = eval_derivative(fam, 0.1)
        assert d1 == pytest.approx(eval_derivative(EXP, 0.1), rel=1e-3)


class TestUtility:
    def test_identity_when_risk_neutral(self):
        assert utility(0.0, 0.3) == 0.3

    def test_zero_at_zero(self):
        assert utility(1.0, 0.0) == 0.0

    def test_formula_value(self):
        # (1 - e^{-1}) / 2
        assert utility(2.0, 0.5) == pytest.approx(0.31606027941427884, rel=1e-12)

    def test_inverse_identity_case(self):
        assert utility_inverse(0.0, -0.04) == -0.04

    def test_inverse_closed_form(self):
        assert utility_inverse(1.0, 1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for gamma in (0.0, 0.3, 1.0, 4.0):
            hi = 1.0 / gamma if gamma > 0 else 5.0
            ys = rng.uniform(-5.0, hi - 1e-9, size=50)
            np.testing.assert_allclose(
                utility(gamma, np.asarray(utility_inverse(gamma, ys))), ys, atol=1e-12
            )

    def test_inverse_domain_error(self):
        with pytest.raises(ValueError):
            utility_inverse(2.0, 0.5)

    @pytest.mark.parametrize("gamma", [-0.5, 5e-324, 1e-310, math.nan])
    def test_risk_aversion_outside_the_domain(self, gamma):
        # a subnormal gamma used to give U_gamma(0.04) = 0
        for fn in (utility, utility_inverse):
            with pytest.raises(ValueError, match="risk aversion must be 0 or at least 2.22507e-308"):
                fn(gamma, 0.04)


class TestThresholds:
    def test_exponential_floor_threshold(self):
        cap, floor = spread_thresholds(EXP, 0.0, (0.0, math.inf))
        assert floor == pytest.approx(0.04, abs=1e-14)
        assert cap == -math.inf

    def test_unbounded_low_gives_infinite_floor(self):
        cap, floor = spread_thresholds(EXP, 0.0, (-math.inf, 1.0))
        assert floor == math.inf
        assert math.isfinite(cap)

    def test_unbounded_high_gives_minus_inf_cap(self):
        cap, _ = spread_thresholds(EXP, 0.0, (0.0, math.inf))
        assert cap == -math.inf


class TestOptimalSpread:
    def test_exponential_risk_neutral_at_zero(self):
        assert optimal_spread(EXP, 0.0, 0.0, UNBOUNDED) == pytest.approx(0.04, abs=1e-12)

    def test_exponential_shifts_with_d(self):
        assert optimal_spread(EXP, 0.0, -0.1, TABLE1_BOUNDS) == pytest.approx(0.14, abs=1e-12)

    def test_floored_at_lower_bound(self):
        assert optimal_spread(EXP, 0.0, 0.1, (0.0, math.inf)) == 0.0

    def test_capped_at_upper_bound(self):
        assert optimal_spread(EXP, 0.0, -3.0, (0.0, 1.0)) == 1.0

    @pytest.mark.parametrize("fam", FAMILIES)
    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_fixed_point_residual_small(self, fam, gamma):
        lo = max(-0.2, fam.domain_lo() + 1e-3)
        bounds = (lo, 2.0)
        for d in np.linspace(-0.4, 0.4, 9):
            delta = searched_spread(fam, gamma, float(d), bounds)
            if bound_flag(delta, bounds) == "interior":
                lam = eval_intensity(fam, delta)
                dlam = eval_derivative(fam, delta)
                resid = delta + utility_inverse(gamma, lam / dlam) + d
                assert abs(resid) < 1e-10

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_non_increasing_in_d(self, fam):
        lo = max(-0.2, fam.domain_lo() + 1e-3)
        ds = np.linspace(-0.5, 0.5, 41)
        spreads = optimal_spread(fam, 0.0, ds, (lo, 2.0))
        assert np.all(np.diff(spreads) <= 1e-12)

    def test_exponential_closed_form_equals_bisection(self):
        ds = np.linspace(-0.4, 0.4, 17)
        fast = optimal_spread(EXP, 0.3, ds, TABLE1_BOUNDS)
        slow = _fixed_point_spread(EXP, 0.3, ds, TABLE1_BOUNDS)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_grid_fallback_close_to_fixed_point(self):
        knots = np.linspace(-0.5, 1.0, 40001)
        tab = IntensityFamily.tabulated(knots, eval_intensity(EXP, knots))
        grid_step = 1.5 / 20000
        for d in (-0.3, 0.0, 0.2):
            d_tab = optimal_spread(tab, 0.0, d, (-0.5, 1.0))
            d_exp = optimal_spread(EXP, 0.0, d, (-0.5, 1.0))
            assert abs(d_tab - d_exp) <= 2 * grid_step
            h_tab = hamiltonian_value(tab, 0.0, d, (-0.5, 1.0))
            h_exp = hamiltonian_value(EXP, 0.0, d, (-0.5, 1.0))
            assert abs(h_tab - h_exp) <= 1e-6


def solve_from_table(fam, gamma, d, bounds):
    """``_solve_fixed_point`` at every element of the array ``d``, with the
    start table ``optimal_spread`` would use."""
    m = intensity._search_constants(fam, gamma, bounds)
    table = np.broadcast_to(m.table, d.shape + m.nodes.shape)
    return _solve_fixed_point(fam, gamma, d, bounds, m.nodes, table)


SMOOTH = FAMILIES[1:]
# d values from capped to floored on the finite bounds, and far-out roots
# on the infinite ones
SEARCH_DS = (-3.0, -0.5, -0.2, -0.05, 0.0, 0.03, 0.1, 0.25, 0.4, 3.0)


def search_bounds(fam, kind):
    """Finite bounds (lo, 2), or hi = inf with lo = -inf where the curve is
    defined there (the power law keeps lo inside its domain)."""
    lo = max(-0.2, fam.domain_lo() + 1e-3)
    if kind == "finite":
        return (lo, 2.0)
    return (lo if math.isfinite(fam.domain_lo()) else -math.inf, math.inf)


SEARCH_CASES = [
    (fam, gamma, kind)
    for fam in SMOOTH
    for gamma in (0.0, 0.5)
    for kind in ("finite", "infinite")
]
# family_violations rejects one case: arctan at gamma = 0 with hi = inf,
# whose tail decays too slowly.  Far out its fixed-point residual is flat
# and noisy, so two correct root searches stop far apart: at d = -0.05 a
# plain bisection ends at 24154.5 and the package's search at 24418.6.  It
# is not compared.
ACCEPTED_CASES = [
    case for case in SEARCH_CASES
    if not family_violations(case[0], *search_bounds(case[0], case[2]), case[1])
]


def case_id(case):
    fam, gamma, kind = case
    return f"{fam.kind}-g{gamma}-{kind}"


class TestFixedPointSearch:
    def test_only_the_slow_arctan_tail_is_rejected(self):
        rejected = [case_id(c) for c in SEARCH_CASES if c not in ACCEPTED_CASES]
        assert rejected == ["arctan-g0.0-infinite"]

    @pytest.mark.parametrize("case", ACCEPTED_CASES, ids=case_id)
    def test_matches_independent_bisection(self, case):
        fam, gamma, kind = case
        bounds = search_bounds(fam, kind)
        for d in SEARCH_DS:
            delta = optimal_spread(fam, gamma, d, bounds)
            ref = optimal_spread_bisection(fam, gamma, d, *bounds)
            assert abs(delta - ref) <= 1e-12 * max(1.0, abs(ref)), (d, delta, ref)

    @pytest.mark.parametrize("case", SEARCH_CASES, ids=case_id)
    def test_batch_equals_scalar_calls(self, case):
        # each element stops and freezes on its own, so a batch is exact
        fam, gamma, kind = case
        bounds = search_bounds(fam, kind)
        ds = np.concatenate([np.linspace(-0.5, 0.5, 41), SEARCH_DS])
        batch = optimal_spread(fam, gamma, ds, bounds)
        assert np.array_equal(batch, [optimal_spread(fam, gamma, d, bounds) for d in ds])

    def test_end_on_the_wrong_side_is_the_root(self):
        # at d = 100 the residual is positive on all of [-1, 1]: that element
        # finishes at lo at once and stays there while its neighbour runs on
        fam = IntensityFamily.logistic(2.0, 25.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = solve_from_table(fam, 0.5, np.array([0.0, 100.0]), (-1.0, 1.0))
        alone = solve_from_table(fam, 0.5, np.array([0.0]), (-1.0, 1.0))
        assert both[1] == -1.0
        assert both[0] == alone[0]

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        """A list that grows by one at every fixed-point residual evaluation."""
        residual = intensity._fixed_point_residual
        calls = []

        def counted(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(intensity, "_fixed_point_residual", counted)
        return calls

    def test_residual_evaluations_per_interior_call(self, residual_calls):
        # logistic 2 25 1 at gamma = 0.5 and bounds +-1, as in perfbench/logistic.cfg;
        # plain bisection of the width-2 bracket to 1e-12 would take ~43.  A
        # prepared family counts the search alone: its start table is made
        # once, and these five calls take 2 to 4 Newton evaluations
        bounds = (-1.0, 1.0)
        fam = prepared(IntensityFamily.logistic(2.0, 25.0, 1.0), 0.5, bounds)
        for d in (-0.3, -0.05, 0.0, 0.02, 0.3):
            residual_calls.clear()
            delta = optimal_spread(fam, 0.5, d, bounds)
            assert bound_flag(delta, bounds) == "interior"
            assert 1 <= len(residual_calls) <= 4, (d, len(residual_calls))

    @pytest.mark.parametrize(
        "fam, gamma, d, root",
        [
            (IntensityFamily.logistic(10.0, 25.0, 1.5), 2.0, -50.0, 50.0385),
            (IntensityFamily.logistic(5.0, 3.0, 0.2), 0.0, -1000.0, 1000.3333),
        ],
        ids=["gamma2", "gamma0"],
    )
    def test_logistic_root_past_the_overflow(self, fam, gamma, d, root):
        # b delta is about 1250 and 3000 at these roots: c e^{b delta}
        # overflows, and the search brackets and solves with the ratios'
        # forms in e^{-b delta}; lam there is 0 and H(d) = 0, both quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = optimal_spread(fam, gamma, d, UNBOUNDED)
            assert eval_intensity(fam, delta) == 0.0
            assert hamiltonian_value(fam, gamma, d, UNBOUNDED) == 0.0
        ref = optimal_spread_bisection(fam, gamma, d, *UNBOUNDED)
        assert delta == pytest.approx(root, abs=1e-4)
        assert abs(delta - ref) <= 1e-12 * abs(ref)
        # a finite upper bound past the overflow gives a finite threshold,
        # and the same maximizer inside it
        cap, _ = spread_thresholds(fam, gamma, (0.0, 2.0 * root))
        assert math.isfinite(cap)
        assert optimal_spread(fam, gamma, d, (0.0, 2.0 * root)) == pytest.approx(delta, rel=1e-12)

    def test_far_out_root_converges(self, residual_calls):
        # the root is 2 (0.1 - d) = 2e5 + 0.2, where a float step is ~3e-11,
        # wider than the 1e-12 absolute width: only the relative stopping
        # width ends the search before its 200-iteration cap (213 residual
        # evaluations without it)
        fam = SMOOTH[2]
        bounds = search_bounds(fam, "infinite")
        delta = optimal_spread(fam, 0.0, -1e5, bounds)
        ref = optimal_spread_bisection(fam, 0.0, -1e5, *bounds)
        assert abs(delta - ref) <= 1e-12 * abs(ref)
        assert len(residual_calls) <= 40


class TestPreparedFamilies:
    @pytest.mark.parametrize("fam", FAMILIES + [IntensityFamily.tabulated([-1.0, 0.0, 2.0], [3.0, 1.0, 0.2])])
    def test_prepared_calls_equal_plain_calls(self, fam):
        bounds = (max(-0.2, fam.domain_lo() + 1e-3), 2.0)
        ds = np.concatenate([np.linspace(-0.5, 0.5, 21), SEARCH_DS])
        ready = prepared(fam, 0.5, bounds)
        assert ready == fam
        assert np.array_equal(optimal_spread(ready, 0.5, ds, bounds), optimal_spread(fam, 0.5, ds, bounds))
        assert np.array_equal(hamiltonian_value(ready, 0.5, ds, bounds), hamiltonian_value(fam, 0.5, ds, bounds))

    def test_constants_of_other_arguments_are_not_reused(self):
        fam = FAMILIES[1]
        ready = prepared(fam, 0.5, (-1.0, 1.0))
        for gamma, bounds in ((0.0, (-1.0, 1.0)), (0.5, (-0.5, 1.0))):
            assert optimal_spread(ready, gamma, 0.3, bounds) == optimal_spread(fam, gamma, 0.3, bounds)


NAN_FAMILIES = FAMILIES + [IntensityFamily.tabulated(np.linspace(-0.5, 2.0, 101), np.exp(-np.linspace(-0.5, 2.0, 101)))]


class TestNaNArgument:
    @pytest.mark.parametrize("fam", NAN_FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_nan_gives_nan(self, fam, gamma):
        bounds = (max(-0.2, fam.domain_lo() + 1e-3), 2.0)
        assert math.isnan(optimal_spread(fam, gamma, math.nan, bounds))
        assert math.isnan(hamiltonian_value(fam, gamma, math.nan, bounds))
        ds = np.array([0.1, math.nan, -0.1])
        spreads = optimal_spread(fam, gamma, ds, bounds)
        assert np.isnan(spreads).tolist() == [False, True, False]
        assert spreads[0] == optimal_spread(fam, gamma, 0.1, bounds)
        assert spreads[2] == optimal_spread(fam, gamma, -0.1, bounds)


SMOOTH_CURVES = [
    IntensityFamily.logistic(2.0, 25.0, 1.0),
    IntensityFamily.logistic(10.0, 25.0, 1.5),
    IntensityFamily.arctan(1.0, 10.0, 0.5),
    IntensityFamily.power_law(2.0, 5.0, 1.0, 2.0),
]


@st.composite
def maximizer_cases(draw):
    """A smooth curve, gamma 0 or in [MIN_RISK_AVERSION, 2], a lower bound
    inside [-0.2, 1.9] (and the curve's domain), and either a finite upper
    bound at most 2, at least 0.05 above it, with a few d in [-0.5, 0.5],
    or an infinite one with a few d in [-60, 0.5], which puts the logistic
    curves' maximizers past b delta = 709, where c e^{b delta} overflows.
    An arctan tail is never unbounded: as gamma falls to 0 its far fixed
    point grows flat, and two correct searches stop far apart (see
    ACCEPTED_CASES)."""
    fam = draw(st.sampled_from(SMOOTH_CURVES))
    gamma = draw(st.one_of(st.just(0.0), st.floats(MIN_RISK_AVERSION, 2.0)))
    lo = draw(st.floats(max(-0.2, fam.domain_lo() + 1e-3), 1.9))
    if fam.kind != "arctan" and draw(st.booleans()):
        hi, d_lo = math.inf, -60.0
    else:
        hi, d_lo = draw(st.floats(lo + 0.05, 2.0)), -0.5
    ds = draw(st.lists(st.floats(d_lo, 0.5), min_size=1, max_size=6))
    return fam, gamma, (lo, hi), np.array(ds)


class TestMaximizerProperties:
    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(maximizer_cases())
    def test_the_search_finds_the_maximizer(self, case):
        fam, gamma, bounds, ds = case
        lo, hi = bounds
        spreads = optimal_spread(fam, gamma, ds, bounds)
        assert np.array_equal(spreads, [optimal_spread(fam, gamma, d, bounds) for d in ds])
        assert np.all((lo <= spreads) & (spreads <= hi))
        if math.isinf(hi):  # far out lam underflows: against the bisection oracle
            for d, delta in zip(ds, spreads):
                ref = optimal_spread_bisection(fam, gamma, d, lo, hi)
                assert abs(delta - ref) <= 1e-12 * max(1.0, abs(ref)), (d, delta, ref)
            return
        grid = np.linspace(lo, hi, 2001)
        for d, delta in zip(ds, spreads):
            if lo < delta < hi:
                lam, dlam = eval_intensity(fam, delta), eval_derivative(fam, delta)
                assert abs(delta + utility_inverse(gamma, lam / dlam) + d) <= 1e-10
            best = np.max(eval_intensity(fam, grid) * utility(gamma, grid + d))
            assert eval_intensity(fam, delta) * utility(gamma, delta + d) >= best - 1e-9


# three curves of each searched kind that takes per-element parameters
PER_ELEMENT_CURVES = {
    "logistic": [
        IntensityFamily.logistic(2.0, 25.0, 1.5),
        IntensityFamily.logistic(10.0, 20.0, 1.0),
        IntensityFamily.logistic(5.0, 30.0, 0.5),
    ],
    "arctan": [
        IntensityFamily.arctan(1.0, 10.0, 0.5),
        IntensityFamily.arctan(3.0, 15.0, 0.0),
        IntensityFamily.arctan(2.0, 8.0, 1.0),
    ],
}
PER_ELEMENT_CASES = [
    (kind, gamma, bounds)
    for kind in PER_ELEMENT_CURVES
    for gamma in (0.0, 0.5)
    for bounds in ("finite", "infinite")
]


def stacked(curves):
    """One family of ``curves``' kind whose parameters are per-curve arrays."""
    return IntensityFamily(curves[0].kind, tuple(np.array(p) for p in zip(*(c.params for c in curves))))


class TestPerElementParameters:
    """One family whose parameters are arrays, one curve per column, against
    the scalar-parameter call of each curve."""

    @pytest.mark.parametrize("kind, gamma, bounds", PER_ELEMENT_CASES, ids=str)
    def test_array_call_equals_each_curves_calls(self, kind, gamma, bounds):
        curves = PER_ELEMENT_CURVES[kind]
        fam = stacked(curves)
        if bounds == "finite":
            bounds = (-0.2, 2.0)
        else:
            bounds = UNBOUNDED  # the bracket grows from [-1, 1] on both sides
        ds = np.concatenate([np.linspace(-0.5, 0.5, 41), SEARCH_DS])
        grid = np.repeat(ds[:, None], len(curves), axis=1)  # column j holds curve j
        spreads = optimal_spread(fam, gamma, grid, bounds)
        values = hamiltonian_value(fam, gamma, grid, bounds)
        caps, floors = (np.broadcast_to(v, len(curves)) for v in spread_thresholds(fam, gamma, bounds))
        for j, curve in enumerate(curves):
            assert np.array_equal(spreads[:, j], [optimal_spread(curve, gamma, d, bounds) for d in ds])
            assert np.array_equal(values[:, j], hamiltonian_value(curve, gamma, ds, bounds))
            thresholds = spread_thresholds(curve, gamma, bounds)
            assert all(type(v) is float for v in thresholds)
            assert (caps[j], floors[j]) == thresholds

    def test_family_at_gathers_the_curves(self):
        curves = PER_ELEMENT_CURVES["logistic"]
        fam = stacked(curves)
        picked = family_at(fam, np.array([2, 0, 2]), (3,))
        assert [tuple(p.tolist()) for p in picked.params] == [
            tuple(curves[j].params[k] for j in (2, 0, 2)) for k in range(3)
        ]
        # broadcast to a shape first, then indexed there (a boolean mask)
        mask = np.array([[True, False, True], [False, True, False]])
        masked = family_at(fam, mask, mask.shape)
        assert masked.params[2].tolist() == [1.5, 0.5, 1.0]
        assert family_at(curves[0], mask, mask.shape) is curves[0]


class TestHamiltonian:
    def test_exponential_interior_value(self):
        # -lam^2/lam' at the maximizer 1/b equals (a/b) e^{-1}
        value = hamiltonian_value(EXP, 0.0, 0.0, UNBOUNDED)
        delta = optimal_spread(EXP, 0.0, 0.0, UNBOUNDED)
        assert value == pytest.approx((2.0 / 25.0) * math.exp(-1.0), rel=1e-12)
        assert delta == pytest.approx(0.04, abs=1e-12)
        assert bound_flag(delta, UNBOUNDED) == "interior"
        # independent oracle: dense grid search
        d_star, h_star = grid_search_oracle(EXP, 0.0, 0.0)
        assert delta == pytest.approx(d_star, abs=2e-5)
        assert value == pytest.approx(h_star, abs=1e-8)

    def test_floored_value_is_linear_branch(self):
        bounds = (0.0, math.inf)
        assert bound_flag(optimal_spread(EXP, 0.0, 0.1, bounds), bounds) == "floored"
        assert hamiltonian_value(EXP, 0.0, 0.1, bounds) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("fam", FAMILIES)
    def test_monotone_increasing_in_d(self, fam):
        lo = max(-0.2, fam.domain_lo() + 1e-3)
        ds = np.linspace(-0.5, 0.5, 41)
        hs = np.asarray(hamiltonian_value(fam, 0.0, ds, (lo, 2.0)))
        assert np.all(np.diff(hs) >= -1e-14)

    @pytest.mark.parametrize("fam", FAMILIES)
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_sup_property(self, fam, gamma):
        rng = np.random.default_rng(11)
        lo = max(-0.2, fam.domain_lo() + 1e-3)
        bounds = (lo, 2.0)
        for d in (-0.3, 0.0, 0.25):
            h_star = hamiltonian_value(fam, gamma, d, bounds)
            deltas = rng.uniform(lo, 2.0, size=200)
            hs = eval_intensity(fam, deltas) * utility(gamma, deltas + d)
            assert np.all(hs <= h_star + 1e-12)

    def test_closed_form_matches_interior(self):
        for fam in FAMILIES:
            lo = max(-0.2, fam.domain_lo() + 1e-3)
            delta = searched_spread(fam, 0.4, 0.05, (lo, 2.0))
            if bound_flag(delta, (lo, 2.0)) == "interior":
                cf = hamiltonian_closed_form(fam, 0.4, 0.05, (lo, 2.0))
                h = eval_intensity(fam, delta) * utility(0.4, delta + 0.05)
                assert h == pytest.approx(cf, abs=1e-10)

    def test_locally_lipschitz_in_d(self):
        # envelope theorem at gamma = 0: dH/dd = lam(optimal spread), which is
        # increasing in d; finite-difference slopes must respect that local bound
        ds = np.linspace(-1.0, 1.0, 2001)
        hs = np.asarray(hamiltonian_value(EXP, 0.0, ds, TABLE1_BOUNDS))
        slopes = np.diff(hs) / np.diff(ds)
        local_bound = eval_intensity(EXP, np.asarray(optimal_spread(EXP, 0.0, ds[1:], TABLE1_BOUNDS)))
        assert np.all(slopes >= -1e-12)
        assert np.all(slopes <= local_bound * (1.0 + 1e-9) + 1e-12)

    def test_vectorized_matches_scalar(self):
        ds = np.linspace(-0.3, 0.3, 7)
        values = hamiltonian_value(EXP, 0.0, ds, TABLE1_BOUNDS)
        spreads = optimal_spread(EXP, 0.0, ds, TABLE1_BOUNDS)
        for i, d in enumerate(ds):
            value = hamiltonian_value(EXP, 0.0, float(d), TABLE1_BOUNDS)
            spread = optimal_spread(EXP, 0.0, float(d), TABLE1_BOUNDS)
            assert values[i] == pytest.approx(value, rel=1e-14)
            assert spreads[i] == pytest.approx(spread, rel=1e-14)
            assert bound_flag(spreads[i], TABLE1_BOUNDS) == bound_flag(spread, TABLE1_BOUNDS)


class TestChecks:
    @pytest.mark.parametrize("fam", FAMILIES)
    def test_families_pass_strong_assumptions(self, fam):
        lo = max(-1.0, fam.domain_lo() + 1e-3)
        assert meets_strong_assumptions(fam, lo, 2.0)

    def test_increasing_table_fails(self):
        fam = IntensityFamily.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        assert not meets_strong_assumptions(fam, -1.0, 1.0)
        assert family_violations(fam, -1.0, 1.0, 0.0)

    def test_slow_tail_flagged_for_risk_neutral(self):
        # decay like 1/delta: delta * lam does not vanish
        fam = IntensityFamily.power_law(2.0, 5.0, 1.0, 1.0)
        assert family_violations(fam, 0.0, math.inf, 0.0)
        assert not family_violations(fam, 0.0, 1.0, 0.0)

    def test_exponential_clean(self):
        assert family_violations(EXP, -10.0, 10.0, 0.0) == []
        assert family_violations(EXP, 0.0, math.inf, 0.0) == []
