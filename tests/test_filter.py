import logging
import math

import numpy as np
import pytest
from oracles import bayes_filter

from regimemm.errors import NumericsError
from regimemm.filtering import (
    FilterState,
    _rk4_step,
    attractor,
    constant_spread_policy,
    drift,
    evolve,
    jump_update,
    observable_rates,
)
from regimemm.intensity import IntensityFamily
from regimemm.model import RegimeSpec, table1_spec, with_params

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


class TestEvolve:
    def test_no_events_long_run_hits_attractor(self):
        spec = with_params(table1_spec(), horizon_T=5.0)
        policy = constant_spread_policy(0.04, 0.04)
        traj = evolve(HALF, policy, [], spec)
        target = attractor(spec, beta=2)
        assert abs(traj.final.probs[0] - target) < 1e-3

    def test_zero_generator_and_equal_intensities_constant(self):
        spec = with_params(m_one_spec(), generator_Q=np.zeros((2, 2)))
        traj = evolve(FilterState(np.array([0.3, 0.7])), constant_spread_policy(0.1, 0.1), [], spec)
        np.testing.assert_allclose(traj.final.probs, [0.3, 0.7], atol=1e-12)

    def test_single_event_uses_left_limit(self):
        spec = table1_spec()
        policy = constant_spread_policy(0.04, 0.04)
        t_ev = 0.3
        traj = evolve(HALF, policy, [(t_ev, "bid")], spec, t_end=t_ev)
        no_jump = evolve(HALF, policy, [], spec, t_end=t_ev)
        expected = jump_update(no_jump.final, "bid", 0.04, spec)
        np.testing.assert_allclose(traj.final.probs, expected.probs, atol=1e-12)

    def test_simplex_preserved_along_path(self):
        spec = table1_spec()
        policy = constant_spread_policy(0.02, 0.08)
        events = [(0.2, "bid"), (0.5, "bid"), (0.7, "ask")]
        traj = evolve(HALF, policy, events, spec)
        probs = np.array(traj.probs)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        assert probs.min() > 0.0

    def test_rk4_order_four_on_smooth_segment(self):
        spec = table1_spec()
        policy = constant_spread_policy(0.04, 0.04)
        ref = evolve(HALF, policy, [], spec, t_end=0.5, step=1e-5).final.probs[0]
        err = []
        for h in (4e-3, 2e-3):
            got = evolve(HALF, policy, [], spec, t_end=0.5, step=h).final.probs[0]
            err.append(abs(got - ref))
        ratio = err[0] / err[1]
        assert 10.0 < ratio < 24.0

    def test_events_must_be_sorted(self):
        with pytest.raises(ValueError):
            evolve(HALF, constant_spread_policy(0.1, 0.1), [(0.5, "bid"), (0.2, "ask")], table1_spec())

    def test_csv_export_shape(self):
        traj = evolve(HALF, constant_spread_policy(0.04, 0.04), [(0.2, "ask")], table1_spec(), t_end=0.4)
        text = traj.to_csv()
        head, first = text.splitlines()[:2]
        assert head == "t,pi1,pi2,event_flag,side"
        assert first.startswith("0,") or first.startswith("0.0,")

    def test_oracle_equivalence_small_instance(self):
        # brute-force discrete Bayes recursion vs the PDMP integrator
        spec = table1_spec()
        db, da = 0.05, 0.08
        events = [(0.25, "bid"), (0.6, "ask"), (0.8, "bid")]
        dt = 1e-4
        times, oracle_path = bayes_filter(spec, db, da, 1.0, dt, events)
        traj = evolve(
            HALF, constant_spread_policy(db, da), events, spec, t_end=1.0, step=1e-3
        )
        # linear interpolation, but at a jump time take the post-jump value
        # (the oracle is cadlag): nudge the pre-jump duplicate back slightly
        tt = np.array(traj.times)
        pp = np.array([p[0] for p in traj.probs])
        dup = np.flatnonzero(np.diff(tt) == 0.0)
        tt[dup] -= 1e-12
        sup_err = np.max(np.abs(np.interp(times, tt, pp) - oracle_path[:, 0]))
        assert sup_err < 5e-3

    def test_batch_rk4_step_matches_single_steps(self):
        # one integrator for evolve and the engine: each row of a batch step
        # with per-path t and h equals the single-belief step
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
        # a frozen chain with one very liquid regime: the quiet period drives
        # that regime's belief below the floor on many steps
        base = table1_spec()
        fast = IntensityFamily.exponential(3000.0, 25.0)
        spec = with_params(
            base, regimes=(RegimeSpec("fast", fast, fast), base.regimes[1]),
            generator_Q=np.zeros((2, 2)),
        )
        with caplog.at_level(logging.WARNING, logger="regimemm.filtering"):
            traj = evolve(HALF, constant_spread_policy(0.04, 0.04), [], spec)
        clamps = [r for r in caplog.records if "simplex floor" in r.getMessage()]
        assert len(clamps) == 1
        assert int(clamps[0].getMessage().split()[-2]) > 1
        assert traj.final.probs[0] > 0.0


class TestAttractor:
    def test_one_active_side(self):
        assert attractor(table1_spec(), beta=1) == pytest.approx(0.572, abs=1e-3)

    def test_two_active_sides(self):
        assert attractor(table1_spec(), beta=2) == pytest.approx(0.636, abs=1e-3)

    def test_symmetric_rates_no_information(self):
        spec = m_one_spec()
        assert attractor(spec, beta=1) == pytest.approx(0.5, abs=1e-10)

    def test_root_is_root(self):
        spec = table1_spec()
        from regimemm.model import two_regime_reduction

        red = two_regime_reduction(spec)
        for beta in (1, 2):
            pi = attractor(spec, beta)
            assert abs(red.q_hat(pi) + red.w(pi) * red.a * math.exp(-1) * beta) < 1e-8

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
