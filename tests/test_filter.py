import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exact_filter

from regimemm.errors import NumericsError
from regimemm.filtering import (
    _FLOOR,
    FilterState,
    _rk4_step,
    attractor,
    drift,
    jump_update,
    observable_rates,
)
from regimemm.intensity import IntensityFamily, eval_intensity
from regimemm.model import RegimeSpec, table1_spec, with_params
from regimemm.simulate import (
    _RK4_REAL_LIMIT,
    DEFAULT_FILTER_STEP,
    FixedSpreadPolicy,
    monte_carlo,
    simulate_path,
)

E = math.e
HALF = FilterState(np.array([0.5, 0.5]))


def m_one_spec():
    """Two regimes with identical intensities: orders carry no information."""
    base = table1_spec()
    return with_params(base, regimes=(base.regimes[0], base.regimes[0]))




class TestObservableRates:
    def test_weighted_sum(self):
        rates = observable_rates(HALF, (0.04, 0.04), 0, table1_spec())
        expected = 0.5 * 2 / E + 0.5 * 10 / E  # 6/e
        assert rates.bid_rate == pytest.approx(expected, rel=1e-12)
        assert rates.bid_rate == pytest.approx(2.207276647028654, rel=1e-10)
        assert rates.ask_rate == pytest.approx(expected, rel=1e-12)

    def test_blocked_sides(self):
        spec = table1_spec()
        at_cap = observable_rates(HALF, (0.04, 0.04), 3, spec)
        assert at_cap.bid_rate == 0.0 and at_cap.ask_rate > 0.0
        at_floor = observable_rates(HALF, (0.04, 0.04), -3, spec)
        assert at_floor.ask_rate == 0.0 and at_floor.bid_rate > 0.0

    def test_degenerate_weights(self):
        state = FilterState(np.array([1.0 - 1e-15, 1e-15]))
        rates = observable_rates(state, (0.04, 0.04), 0, table1_spec())
        assert rates.bid_rate == pytest.approx(2 / E, rel=1e-9)

    def test_stub_side_has_zero_rate(self):
        rates = observable_rates(HALF, (math.inf, 0.04), 0, table1_spec())
        assert rates.bid_rate == 0.0


class TestDrift:
    def test_two_regime_value_at_half(self):
        # q_hat(0.5) = 0, w(0.5) = 1: velocity of pi1 is a * 2/e
        v = drift(HALF, (0.04, 0.04), 0, table1_spec())
        assert v[0] == pytest.approx(4.0 / E, rel=1e-12)
        assert v[0] == pytest.approx(1.4715177646857693, rel=1e-10)

    def test_oracle_general_k_formula(self):
        # general-k drift evaluated directly must agree with the module
        spec = table1_spec()
        rng = np.random.default_rng(3)
        from regimemm.intensity import eval_intensity

        for _ in range(20):
            p1 = rng.uniform(0.05, 0.95)
            pi = np.array([p1, 1.0 - p1])
            db, da = rng.uniform(-0.1, 0.3, size=2)
            lam_b = np.array(
                [eval_intensity(r.bid_intensity, db) for r in spec.regimes]
            )
            lam_a = np.array(
                [eval_intensity(r.ask_intensity, da) for r in spec.regimes]
            )
            expected = np.zeros(2)
            for i in range(2):
                expected[i] = sum(
                    spec.generator_Q[j, i] * pi[j]
                    + pi[i] * pi[j] * ((lam_b[j] - lam_b[i]) + (lam_a[j] - lam_a[i]))
                    for j in range(2)
                )
            got = drift(FilterState(pi), (db, da), 0, spec)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_boundary_rate(self):
        v = drift(FilterState(np.array([1e-16, 1.0 - 1e-16])), (0.04, 0.04), 0, table1_spec())
        assert v[0] == pytest.approx(5.0, abs=1e-8)

    def test_identical_intensities_leave_transport_only(self):
        spec = m_one_spec()
        state = FilterState(np.array([0.3, 0.7]))
        v = drift(state, (0.1, 0.2), 0, spec)
        np.testing.assert_allclose(v, spec.generator_Q.T @ state.probs, atol=1e-14)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(5)
        spec = table1_spec()
        for _ in range(50):
            p1 = rng.uniform(0.01, 0.99)
            v = drift(FilterState(np.array([p1, 1 - p1])), (0.0, 0.1), 0, spec)
            assert abs(v.sum()) < 1e-12


class TestJumpUpdate:
    def test_proportional_update_from_half(self):
        new = jump_update(HALF, "bid", 0.04, table1_spec())
        assert new.probs[0] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_update_from_point_six(self):
        state = FilterState(np.array([0.6, 0.4]))
        new = jump_update(state, "ask", 0.1, table1_spec())
        assert new.probs[0] == pytest.approx(0.6 / 2.6, rel=1e-14)
        assert new.probs[0] == pytest.approx(0.23076923076923078, rel=1e-12)

    def test_uninformative_orders_do_nothing(self):
        spec = m_one_spec()
        state = FilterState(np.array([0.3, 0.7]))
        new = jump_update(state, "bid", 0.15, spec)
        np.testing.assert_allclose(new.probs, state.probs, atol=1e-15)
        again = jump_update(new, "ask", 0.15, spec)
        np.testing.assert_allclose(again.probs, state.probs, atol=1e-15)

    def test_stays_in_open_simplex(self):
        state = FilterState(np.array([1e-12, 1.0 - 1e-12]))
        new = jump_update(state, "bid", 0.04, table1_spec())
        new.check()

    @pytest.mark.parametrize("probs", [[1e-16, 1.0 - 1e-16], [1e-300, 1.0]], ids=["1e-16", "floor"])
    def test_beliefs_near_a_vertex_pass_the_check(self, probs):
        # the complement of a tiny coordinate rounds to 1.0; the update keeps
        # the tiny one at or above the simplex floor
        state = FilterState(np.array(probs))
        state.check()
        new = jump_update(state, "bid", 0.04, table1_spec())
        new.check()
        assert new.probs[0] >= 1e-300 and new.probs[1] == 1.0

    def test_check_rejects_a_coordinate_below_the_floor(self):
        for probs in ([0.0, 1.0], [1e-310, 1.0], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="floor"):
                FilterState(np.array(probs)).check()


class TestBroadcast:
    """The engine runs the filter on (P, k) batches: each row of a broadcast
    call must equal the one-belief call at that row's spreads and inventory."""

    # rows: n = +3 and -3 at the cap quoting finite spreads on the blocked
    # side (as FixedSpreadPolicy does), a stub bid, a stub ask, beliefs at
    # and next to the simplex floor, and interior points
    PI1 = np.array([0.5, 0.3, 0.6, 0.45, 1e-300, 1.0 - 1e-16, 1e-16, 0.9])
    BID = np.array([0.04, 0.04, math.inf, 0.1, 0.04, 0.02, -0.05, 0.2])
    ASK = np.array([0.04, 0.07, 0.03, math.inf, 0.05, 0.02, 0.1, -0.02])
    N = np.array([3, -3, 0, 1, 0, 2, -1, -2])

    def batch(self):
        return FilterState(np.column_stack([self.PI1, 1.0 - self.PI1]))

    def rows(self):
        for p in range(len(self.PI1)):
            state = FilterState(np.array([self.PI1[p], 1.0 - self.PI1[p]]))
            yield p, state, (float(self.BID[p]), float(self.ASK[p])), int(self.N[p])

    def test_observable_rates_rows_equal_single_calls(self):
        spec = table1_spec()
        rates = observable_rates(self.batch(), (self.BID, self.ASK), self.N, spec)
        assert rates.bid_rate.shape == rates.ask_rate.shape == (len(self.PI1),)
        for p, state, spreads, n in self.rows():
            one = observable_rates(state, spreads, n, spec)
            np.testing.assert_array_equal(rates.bid_rate[p], one.bid_rate)
            np.testing.assert_array_equal(rates.ask_rate[p], one.ask_rate)
            np.testing.assert_array_equal(rates.bid_components[p], one.bid_components)
            np.testing.assert_array_equal(rates.ask_components[p], one.ask_components)
        # the capped rows quote finite spreads on their blocked side, the
        # stub rows +inf: all of them give zero
        np.testing.assert_array_equal(rates.bid_components[[0, 2]], 0.0)
        np.testing.assert_array_equal(rates.ask_components[[1, 3]], 0.0)

    def test_drift_rows_equal_single_calls(self):
        spec = table1_spec()
        batch = drift(self.batch(), (self.BID, self.ASK), self.N, spec)
        assert batch.shape == (len(self.PI1), 2)
        for p, state, spreads, n in self.rows():
            np.testing.assert_array_equal(batch[p], drift(state, spreads, n, spec))

    @pytest.mark.parametrize("side", ["bid", "ask"])
    def test_jump_update_rows_equal_single_calls(self, side):
        spec = table1_spec()
        spreads = np.where(np.isinf(self.BID) | np.isinf(self.ASK), 0.04, self.BID)
        batch = jump_update(self.batch(), side, spreads, spec)
        assert batch.probs.shape == (len(self.PI1), 2)
        for p, state, _, _ in self.rows():
            one = jump_update(state, side, float(spreads[p]), spec)
            np.testing.assert_array_equal(batch.probs[p], one.probs)

    def test_jump_update_on_a_stub_row_raises(self):
        with pytest.raises(NumericsError):
            jump_update(self.batch(), "bid", self.BID, table1_spec())


QUOTES = (0.05, 0.08)
NO_INFORMATION = with_params(m_one_spec(), generator_Q=np.zeros((2, 2)))


def engine_error(spec, h_target=DEFAULT_FILTER_STEP, regime_true=False):
    """20 engine paths under fixed quotes: the records and the largest gap
    between their recorded beliefs and the exact filter."""
    summary = monte_carlo(
        spec, FixedSpreadPolicy(*QUOTES), 20, 5, export_paths=20,
        h_target=h_target, regime_true=regime_true,
    )
    records = summary.records
    err = max(float(np.max(np.abs(r.probs - exact_filter(spec, *QUOTES, r)))) for r in records)
    return records, err


class TestEvolve:
    """The belief's evolution along the Monte Carlo engine's paths, against
    the closed-form filter: report rows carry the dense output, fill rows
    the belief after the Bayes update at the left-limit belief."""

    @pytest.mark.parametrize(
        "spec, regime_true",
        [
            (table1_spec(), False),
            (with_params(table1_spec(), inventory_cap_Nstar=1), False),
            (table1_spec(), True),
            (NO_INFORMATION, False),
        ],
        ids=["table1", "cap-1", "regime-true", "no-information"],
    )
    def test_matches_exact_filter(self, spec, regime_true):
        records, err = engine_error(spec, regime_true=regime_true)
        assert err < 1e-7
        assert sum(len(r.fills) for r in records) > 0
        if spec.inventory_cap_Nstar == 1:  # the side gates switch at fills
            assert any(np.any(np.abs(r.inventory) == 1) for r in records)
        if spec is NO_INFORMATION:  # no switching, uninformative orders
            for r in records:
                np.testing.assert_allclose(r.probs, 0.5, rtol=0.0, atol=1e-15)

    def test_oracle_equivalence_small_instance(self):
        # a few paths at a fine belief step meet the exact filter to 1e-10
        spec = table1_spec()
        summary = monte_carlo(
            spec, FixedSpreadPolicy(*QUOTES), 3, 7, export_paths=3, h_target=1e-3
        )
        assert sum(len(r.fills) for r in summary.records) > 0
        for r in summary.records:
            np.testing.assert_allclose(
                r.probs, exact_filter(spec, *QUOTES, r), rtol=0.0, atol=1e-10
            )

    def test_rk4_order_four_on_smooth_segment(self):
        spec = table1_spec()
        _, coarse = engine_error(spec, h_target=5e-3)
        _, fine = engine_error(spec, h_target=1e-3)
        assert 300.0 <= coarse / fine <= 1000.0  # 5^4 = 625

    def test_single_event_uses_left_limit(self):
        # each fill row equals jump_update at the exact belief just before the
        # fill; on a coarse report grid the belief of the row before differs
        spec = table1_spec()
        summary = monte_carlo(
            spec, FixedSpreadPolicy(*QUOTES), 20, 5, export_paths=20, report_points=10
        )
        stale = 0.0
        for r in summary.records:
            for row in np.flatnonzero(np.array(r.event_side) != ""):
                side = r.event_side[row]
                quote = QUOTES[0] if side == "bid" else QUOTES[1]
                no_jump = list(r.event_side)
                no_jump[row] = ""
                left = exact_filter(spec, *QUOTES, dataclasses.replace(r, event_side=no_jump))[row]
                expected = jump_update(FilterState(left), side, quote, spec)
                np.testing.assert_allclose(r.probs[row], expected.probs, rtol=0.0, atol=1e-7)
                before = jump_update(FilterState(r.probs[row - 1]), side, quote, spec)
                stale = max(stale, float(np.max(np.abs(before.probs - r.probs[row]))))
        assert stale > 1e-2

    def test_zero_generator_and_equal_intensities_constant(self):
        spec = with_params(NO_INFORMATION, initial_filter_mu0=np.array([0.3, 0.7]))
        summary = monte_carlo(spec, FixedSpreadPolicy(*QUOTES), 20, 5, export_paths=20)
        assert sum(len(r.fills) for r in summary.records) > 0
        for r in summary.records:
            np.testing.assert_allclose(r.probs, np.tile([0.3, 0.7], (len(r.times), 1)), atol=1e-12)

    def test_simplex_preserved_along_path(self):
        summary = monte_carlo(
            table1_spec(), FixedSpreadPolicy(0.02, 0.08), 20, 5, export_paths=20
        )
        for r in summary.records:
            assert np.max(np.abs(r.probs.sum(axis=1) - 1.0)) < 1e-12
            assert r.probs.min() >= _FLOOR

    def test_no_events_long_run_hits_attractor(self):
        # the engine's belief step, n = 0 and no fills up to T = 5: the belief
        # settles at the two-sided attractor
        spec = table1_spec()
        h = 1e-3

        def deriv(t, p):
            return drift(FilterState(p), (0.04, 0.04), 0, spec)

        pi = HALF.probs
        for i in range(5000):
            pi, _ = _rk4_step(pi, i * h, h, deriv)
        assert abs(pi[0] - attractor(spec, beta=2)) < 1e-9

    def test_batch_rk4_step_matches_single_steps(self):
        # the engine steps a batch with per-path t and h: each row of a batch
        # step equals the single-belief step
        spec = table1_spec()
        spreads = (0.03, 0.05)

        def deriv(t, p):
            return drift(FilterState(p), spreads, 0, spec)

        pis = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        t = np.array([0.0, 0.3, 0.7])
        h = np.array([1e-3, 2.5e-3, 4e-3])
        batch, clamped = _rk4_step(pis, t, h, deriv)
        assert clamped == 0
        for i in range(3):
            single, _ = _rk4_step(pis[i], t[i], h[i], deriv)
            np.testing.assert_array_equal(batch[i], single)

    def test_clamp_warning_once_per_call(self, caplog):
        # a frozen chain with one very liquid regime: the quiet periods drive
        # that regime's belief below the floor on many steps of one path
        base = table1_spec()
        fast = IntensityFamily.exponential(3000.0, 25.0)
        spec = with_params(
            base, regimes=(RegimeSpec("fast", fast, fast), base.regimes[1]),
            generator_Q=np.zeros((2, 2)),
        )
        with caplog.at_level(logging.WARNING, logger="regimemm.simulate"):
            record = simulate_path(spec, FixedSpreadPolicy(0.04, 0.04), 1, h_target=1e-3)
        clamps = [r for r in caplog.records if "simplex floor" in r.getMessage()]
        assert len(clamps) == 1
        assert int(clamps[0].getMessage().split()[-2]) > 1
        assert record.probs.min() == _FLOOR

    def test_csv_export_shape(self):
        record = simulate_path(table1_spec(), FixedSpreadPolicy(*QUOTES), 3, report_points=20)
        lines = record.to_csv().splitlines()
        assert lines[0] == "t,S,N,X,pi1,spread_bid,spread_ask,event_side"
        assert len(lines) == 1 + len(record.times)
        assert lines[1] == "0,100,0,0,0.5,0.050000000000000003,0.080000000000000002,"
        fill = lines[1 + int(np.flatnonzero(np.array(record.event_side) != "")[0])]
        assert fill.endswith(("bid", "ask"))


TABLE1 = table1_spec()
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# beliefs are two weights from the simplex floor up to 1, normalized
weights = st.floats(min_value=_FLOOR, max_value=1.0)
spreads = st.floats(min_value=TABLE1.spread_lo, max_value=1.0)


def belief(w1, w2):
    return np.array([w1, w2]) / (w1 + w2)


class TestFilterProperties:
    @PROPERTY
    @given(
        st.lists(st.tuples(weights, weights, spreads), min_size=1, max_size=8),
        st.sampled_from(["bid", "ask"]),
    )
    def test_jump_update_stays_on_the_simplex(self, rows, side):
        pis = np.array([belief(w1, w2) for w1, w2, _ in rows])
        delta = np.array([d for *_, d in rows])
        jump_update(FilterState(pis), side, delta, TABLE1).check(atol=1e-12)

    @PROPERTY
    @given(weights, weights, spreads, spreads, st.integers(-3, 3), st.floats(1e-6, 1.0))
    def test_stable_rk4_step_stays_on_the_simplex(self, w1, w2, bid, ask, n, frac):
        # h times the guard's rate bound stays within RK4's real-axis limit
        rates = observable_rates(FilterState(belief(w1, w2)), (bid, ask), n, TABLE1)
        bound = 2.0 * np.max(np.abs(np.diag(TABLE1.generator_Q)))
        bound += rates.bid_components.max() + rates.ask_components.max()
        h = frac * _RK4_REAL_LIMIT / bound

        def deriv(t, p):
            return drift(FilterState(p), (bid, ask), n, TABLE1)

        out, _ = _rk4_step(belief(w1, w2), 0.0, h, deriv)
        FilterState(out).check(atol=1e-12)


class TestAttractor:
    def test_one_active_side(self):
        assert attractor(table1_spec(), beta=1) == pytest.approx(0.572, abs=1e-3)

    def test_two_active_sides(self):
        assert attractor(table1_spec(), beta=2) == pytest.approx(0.636, abs=1e-3)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_perron_left_eigenvector(self, beta):
        # the quiet-period belief is the normalized Perron left eigenvector of
        # the unnormalized filter's generator Q - diag(beta lam_i(1/b)), b = 25
        spec = table1_spec()
        lam = np.array([eval_intensity(r.bid_intensity, 1.0 / 25.0) for r in spec.regimes])
        values, vectors = np.linalg.eig((spec.generator_Q - np.diag(beta * lam)).T)
        v = vectors[:, np.argmax(values.real)].real
        assert abs(attractor(spec, beta) - v[0] / v.sum()) < 1e-12

    @PROPERTY
    @given(
        st.floats(-20.0, -0.1),
        st.floats(0.1, 20.0),
        st.floats(0.1, 10.0),
        st.one_of(st.just(1.0), st.floats(1.0, 20.0)),
        st.floats(1.0, 50.0),
        st.sampled_from([1, 2]),
    )
    def test_root_on_random_markets(self, q11, q21, a, m, b, beta):
        # the settled spread 1/b lies inside table1's bounds, so regime i
        # fills at a_i e^{-1} per active side
        lam1 = IntensityFamily.exponential(a, b)
        lam2 = IntensityFamily.exponential(m * a, b)
        spec = with_params(
            table1_spec(),
            regimes=(RegimeSpec("1", lam1, lam1), RegimeSpec("2", lam2, lam2)),
            generator_Q=np.array([[q11, -q11], [q21, -q21]]),
        )
        pi = attractor(spec, beta)
        assert 0.0 < pi < 1.0
        c = beta * a * math.exp(-1.0) * (m - 1.0)
        assert abs(q11 * pi + q21 * (1.0 - pi) + c * pi * (1.0 - pi)) <= 1e-12
        rates = beta * a * math.exp(-1.0) * np.array([1.0, m])
        values, vectors = np.linalg.eig((spec.generator_Q - np.diag(rates)).T)
        v = vectors[:, np.argmax(values.real)].real
        assert abs(pi - v[0] / v.sum()) < 1e-10

    def test_symmetric_rates_no_information(self):
        spec = m_one_spec()
        assert attractor(spec, beta=1) == pytest.approx(0.5, abs=1e-10)

    def test_root_is_root(self):
        spec = table1_spec()
        from regimemm.model import two_regime_reduction

        red = two_regime_reduction(spec)
        rate = eval_intensity(red.lam, 1.0 / 25.0)  # at the settled spread 1/b
        for beta in (1, 2):
            pi = attractor(spec, beta)
            assert abs(red.q_hat(pi) + red.w(pi) * rate * beta) < 1e-12

    def test_no_root_when_rate_in_nonpositive(self):
        spec = with_params(table1_spec(), generator_Q=np.array([[-5.0, 5.0], [0.0, 0.0]]))
        with pytest.raises(NumericsError):
            attractor(spec, beta=1)

    def test_requires_zero_terminal_cost(self):
        with pytest.raises(NumericsError):
            attractor(table1_spec(terminal_cost_c=0.01), beta=1)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            attractor(table1_spec(), beta=3)
