import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from regimemm import simulate
from regimemm.errors import NumericsError, UnsupportedConfigError
from regimemm.filtering import FilterState
from regimemm.hjb_full import policy as full_policy
from regimemm.hjb_full import solve_constrained
from regimemm.hjb_partial import policy as hjb_partial_policy
from regimemm.hjb_partial import solve as solve_partial
from regimemm.intensity import STUB_SPREAD, IntensityFamily
from regimemm.model import ModelSpec, RegimeSpec, load_config, table1_spec, with_params
from regimemm.simulate import (
    FixedSpreadPolicy,
    FullInfoPolicy,
    PartialInfoPolicy,
    draw_regime_path,
    monte_carlo,
    simulate_path,
    simulate_with_regime,
)

FIXED = FixedSpreadPolicy(0.04, 0.04)
LOGISTIC = Path(__file__).resolve().parent.parent / "configs" / "logistic.cfg"


def small_policy(spec, name):
    """The three engine policies on coarse surfaces."""
    if name == "FIXED":
        return FIXED
    if name == "PARTIAL":
        return PartialInfoPolicy(solve_partial(spec, m_pi=30))
    return FullInfoPolicy(solve_constrained(spec, n_steps=100))


def flooring_spec():
    """A frozen chain with one very liquid regime: quiet periods push that
    regime's belief below the simplex floor."""
    base = table1_spec()
    fast = IntensityFamily.exponential(3000.0, 25.0)
    return with_params(
        base, regimes=(RegimeSpec("fast", fast, fast), base.regimes[1]),
        generator_Q=np.zeros((2, 2)),
    )


# the fast regime's rate, 2 * 3000 e^-1 at 0.04, needs h <= 1.26e-3 for a
# stable belief step; the belief still underflows the floor in quiet periods
FLOORING_RUN = dict(n_paths=2, seed=1, report_points=20, h_target=1e-3)


def one_regime_spec(a=2.0, b=25.0, n_star=50, T=1.0):
    lam = IntensityFamily.exponential(a, b)
    return ModelSpec(
        horizon_T=T,
        drift_mu=0.0,
        vol_sigma=0.1,
        risk_aversion_gamma=0.0,
        running_penalty_zeta=0.0,
        terminal_cost_c=0.0,
        inventory_cap_Nstar=n_star,
        spread_lo=-10.0,
        spread_hi=10.0,
        regimes=(RegimeSpec("only", lam, lam),),
        generator_Q=np.zeros((1, 1)),
        initial_filter_mu0=np.array([1.0]),
        initial_price_s0=100.0,
    )


def dead_market_spec():
    dead = IntensityFamily.exponential(0.0, 25.0)
    base = table1_spec(drift_mu=0.2)
    return with_params(
        base, regimes=(RegimeSpec("d1", dead, dead), RegimeSpec("d2", dead, dead))
    )


class TestSinglePath:
    def test_zero_intensity_zero_events(self):
        spec = dead_market_spec()
        rec = simulate_path(spec, FIXED, seed=3)
        assert rec.fills == []
        assert rec.n_final == 0
        # P&L reduces to the price move on zero inventory: exactly zero terms
        assert rec.pnl_penalized == pytest.approx(0.0, abs=1e-12)

    def test_seed_determinism_bit_identical(self):
        a = simulate_path(table1_spec(), FIXED, seed=11)
        b = simulate_path(table1_spec(), FIXED, seed=11)
        assert a.pnl_penalized == b.pnl_penalized
        assert [f.time for f in a.fills] == [f.time for f in b.fills]
        np.testing.assert_array_equal(a.price, b.price)
        np.testing.assert_array_equal(a.probs, b.probs)
        c = simulate_path(table1_spec(), FIXED, seed=12)
        assert a.pnl_penalized != c.pnl_penalized

    def test_cash_ledger_identity_exact(self):
        rec = simulate_path(table1_spec(), FIXED, seed=5)
        x = 0.0
        for f in rec.fills:
            x += (f.price + f.spread) if f.side == "ask" else -(f.price - f.spread)
        assert x == rec.x_final

    def test_integration_by_parts_identity(self):
        # X_T + S_T N_T - (x0 + s0 n0) = sum fills(spread) + sum N dS
        spec = table1_spec()
        rec = simulate_path(spec, FIXED, seed=9)
        lhs = rec.x_final + rec.s_final * rec.n_final - (
            spec.initial_cash_x0 + spec.initial_price_s0 * spec.initial_inventory_n0
        )
        spread_sum = sum(f.spread for f in rec.fills)
        riemann = float(
            np.sum(rec.inventory[:-1] * np.diff(rec.price))
        )
        assert lhs == pytest.approx(spread_sum + riemann, abs=1e-9)

    def test_gate_enforcement(self):
        spec = with_params(table1_spec(), inventory_cap_Nstar=1)
        for seed in range(6):
            rec = simulate_path(spec, FIXED, seed=seed)
            assert np.all(np.abs(rec.inventory) <= 1)
            assert abs(rec.n_final) <= 1

    def test_filter_invariants_along_path(self):
        rec = simulate_path(table1_spec(), FIXED, seed=21)
        sums = rec.probs.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert rec.probs.min() > 0.0
        for row in rec.probs[:: max(1, len(rec.probs) // 50)]:
            FilterState(row).check(atol=1e-9)

    def test_report_grid_rows(self):
        rec = simulate_path(table1_spec(), FIXED, seed=2, report_points=50)
        grid_rows = [t for t, side in zip(rec.times, rec.event_side) if side == ""]
        assert len(grid_rows) == 51  # includes t=0 and t=T
        assert rec.times[0] == 0.0 and rec.times[-1] == pytest.approx(1.0)

    def test_csv_export(self):
        rec = simulate_path(table1_spec(), FIXED, seed=2, report_points=20)
        text = rec.to_csv()
        assert text.splitlines()[0] == "t,S,N,X,pi1,spread_bid,spread_ask,event_side"
        assert len(text.splitlines()) == len(rec.times) + 1


class TestThinningStatistics:
    def test_poisson_mean_single_regime(self):
        # constant spreads, one regime: fills per side ~ Poisson(a e^{-b d} T)
        spec = one_regime_spec()
        summary = monte_carlo(spec, FIXED, n_paths=10000, seed=17, report_points=10)
        lam = 2.0 * math.exp(-1.0)
        expected = 2.0 * lam  # both sides
        total = summary.mean_fills_bid + summary.mean_fills_ask
        se = math.sqrt(expected / 10000)
        assert abs(total - expected) < 3 * se

    def test_chi_square_against_poisson(self):
        spec = one_regime_spec()
        summary = monte_carlo(spec, FIXED, n_paths=10000, seed=23, report_points=10)
        lam = 2.0 * 2.0 * math.exp(-1.0)  # both sides active, |n| never near 50
        totals = summary.fills_bid_paths + summary.fills_ask_paths
        kmax = int(totals.max())
        observed = np.bincount(totals, minlength=kmax + 1).astype(float)
        probs = np.array([stats.poisson.pmf(k, lam) for k in range(kmax + 1)])
        probs[-1] = 1.0 - probs[:-1].sum()
        expected = probs * len(totals)
        # merge tail bins until every expected count is >= 5
        while expected[-1] < 5 and len(expected) > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        chi2, pval = stats.chisquare(observed, expected)
        assert pval > 0.01


class TestMonteCarlo:
    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo(table1_spec(), FIXED, n_paths=0, seed=1)

    @pytest.mark.parametrize("name", ["FIXED", "PARTIAL", "FULL"])
    def test_batch_matches_scalar_paths(self, name, monkeypatch):
        # partition invariance: path p run alone, or the batch run in chunks,
        # gives the P&L and fills it has inside a batch of 25 (FULL thins
        # against the hidden regime)
        spec = table1_spec()
        policy = small_policy(spec, name)
        regime_true = name == "FULL"
        summary = monte_carlo(
            spec, policy, n_paths=25, seed=41, report_points=100, regime_true=regime_true
        )
        for p in (0, 7, 24):
            if regime_true:
                rec, _ = simulate_with_regime(spec, policy, seed=41, path_index=p, report_points=100)
            else:
                rec = simulate_path(spec, policy, seed=41, path_index=p, report_points=100)
            assert abs(rec.pnl_penalized - summary.pnls[p]) < 1e-12
            assert rec.fills_bid == summary.fills_bid_paths[p]
            assert rec.fills_ask == summary.fills_ask_paths[p]
        # the same batch run in chunks of 7 paths, merged in path order
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        chunked = monte_carlo(
            spec, policy, n_paths=25, seed=41, report_points=100, regime_true=regime_true
        )
        assert np.max(np.abs(chunked.pnls - summary.pnls)) < 1e-12
        np.testing.assert_array_equal(chunked.fills_bid_paths, summary.fills_bid_paths)
        np.testing.assert_array_equal(chunked.fills_ask_paths, summary.fills_ask_paths)
        assert (chunked.rk4_steps, chunked.candidates) == (summary.rk4_steps, summary.candidates)

    def test_recording_leaves_pnl_unchanged(self):
        spec = table1_spec()
        policy = small_policy(spec, "FULL")
        kwargs = dict(n_paths=25, seed=41, report_points=100, regime_true=True)
        plain = monte_carlo(spec, policy, **kwargs)
        recorded = monte_carlo(spec, policy, export_paths=3, **kwargs)
        assert plain.records == ()
        np.testing.assert_array_equal(recorded.pnls, plain.pnls)
        assert [rec.path_index for rec in recorded.records] == [0, 1, 2]
        for p, rec in enumerate(recorded.records):
            assert rec.pnl_penalized == plain.pnls[p]
            assert rec.fills_bid == plain.fills_bid_paths[p]
            assert rec.fills_ask == plain.fills_ask_paths[p]
            assert rec.times[0] == 0.0 and rec.times[-1] == spec.horizon_T
        with pytest.raises(ValueError):
            monte_carlo(spec, FIXED, n_paths=2, seed=1, export_paths=-1)

    def test_clamp_warning_once_per_run(self, caplog):
        with caplog.at_level(logging.WARNING, logger="regimemm.simulate"):
            monte_carlo(flooring_spec(), FIXED, **FLOORING_RUN)
        clamps = [r for r in caplog.records if "simplex floor" in r.getMessage()]
        assert len(clamps) == 1
        assert int(clamps[0].getMessage().split()[-2]) > 1

    def test_records_span_chunks(self, monkeypatch):
        spec = table1_spec()
        kwargs = dict(n_paths=5, seed=3, report_points=30, export_paths=3)
        plain = monte_carlo(spec, FIXED, **kwargs)
        monkeypatch.setattr(simulate, "_CHUNK", 2)
        chunked = monte_carlo(spec, FIXED, **kwargs)
        assert [rec.path_index for rec in chunked.records] == [0, 1, 2]
        for a, b in zip(plain.records, chunked.records):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_allclose(a.probs, b.probs, rtol=0.0, atol=1e-12)
            assert a.event_side == b.event_side
            assert abs(a.pnl_penalized - b.pnl_penalized) < 1e-12

    def test_clamp_warning_once_over_chunks(self, caplog, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", 1)
        with caplog.at_level(logging.WARNING, logger="regimemm.simulate"):
            s = monte_carlo(flooring_spec(), FIXED, **FLOORING_RUN)
        clamps = [r for r in caplog.records if "simplex floor" in r.getMessage()]
        assert len(clamps) == 1
        assert int(clamps[0].getMessage().split()[-2]) == s.clamps > 1

    def test_deterministic_rerun(self):
        a = monte_carlo(table1_spec(), FIXED, n_paths=30, seed=5, report_points=50)
        b = monte_carlo(table1_spec(), FIXED, n_paths=30, seed=5, report_points=50)
        np.testing.assert_array_equal(a.pnls, b.pnls)
        assert a.mean_pnl == b.mean_pnl

    def test_summary_statistics(self):
        s = monte_carlo(table1_spec(), FIXED, n_paths=200, seed=2, report_points=50)
        assert s.paths == 200
        assert s.stderr == pytest.approx(np.std(s.pnls, ddof=1) / math.sqrt(200), rel=1e-12)
        assert s.hist_counts.sum() == 200
        text = s.to_text()
        assert text.startswith("mean_pnl = ")
        assert text.endswith(
            f"rk4_steps = {s.rk4_steps}\ncandidates = {s.candidates}\nclamps = {s.clamps}\n"
        )

    @pytest.mark.parametrize("h", [None, 2e-3, 0.1])
    def test_step_count_is_nodes_plus_candidates(self, h):
        # a path steps once per stop: its nodes k * h, its candidates and T
        spec = table1_spec()
        kwargs = {} if h is None else {"h_target": h}
        s = monte_carlo(spec, FIXED, n_paths=40, seed=8, report_points=50, **kwargs)
        h = simulate.DEFAULT_FILTER_STEP if h is None else h
        nodes = math.ceil(spec.horizon_T / h)
        assert s.candidates >= s.fills_bid_paths.sum() + s.fills_ask_paths.sum()
        assert s.paths * nodes <= s.rk4_steps <= s.paths * nodes + s.candidates + s.paths

    def test_counters_with_one_regime(self):
        # a constant belief takes no steps; every candidate is still counted
        s = monte_carlo(one_regime_spec(), FIXED, n_paths=30, seed=4, report_points=10)
        assert s.rk4_steps == 0
        assert s.candidates >= int(s.fills_bid_paths.sum() + s.fills_ask_paths.sum())

    def test_step_past_rk4_stability_rejected(self):
        # on table1 under fixed 0.04 quotes h * (2 max|Q_ii| + both dominating
        # rates) is 1.7 at h = 0.1 and 5.2 at h = 0.3, past RK4's 2.785
        with pytest.raises(UnsupportedConfigError, match="h_target"):
            monte_carlo(table1_spec(), FIXED, n_paths=2, seed=8, h_target=0.3)
        # a single regime's belief takes no step, so any step is stable
        s = monte_carlo(one_regime_spec(), FIXED, n_paths=2, seed=8, h_target=0.3)
        assert s.rk4_steps == 0

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
    def test_non_positive_step_rejected(self, h):
        with pytest.raises(ValueError, match="h_target"):
            monte_carlo(table1_spec(), FIXED, n_paths=2, seed=1, h_target=h)

    @pytest.mark.parametrize(
        "entry, name, value",
        [
            (entry, name, value)
            for entry in (simulate_path, simulate_with_regime, monte_carlo)
            for name, value in [
                ("report_points", 0),
                ("report_points", -3),
                ("report_points", 2.5),
                ("h_target", math.inf),
                ("report_points", True),
                ("seed", 1.5),
                ("seed", "7"),
                ("seed", -1),
                ("seed", 2**64),
            ]
        ]
        + [
            (monte_carlo, name, value)
            for name, value in [
                ("n_paths", 0),
                ("n_paths", 2.5),
                ("n_paths", True),
                ("export_paths", -1),
                ("export_paths", 1.5),
                ("export_paths", True),
            ]
        ]
        + [
            (entry, "path_index", value)
            for entry in (simulate_path, simulate_with_regime)
            for value in (-1, 2**62, 1.5, True)
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_one_domain_contract(self, entry, name, value):
        # one path count, one report grid, one seed range and one finite
        # positive filter step: counts are integers >= 1 and not bool, the
        # seed an integer in [0, 2**64), the export count an integer >= 0,
        # a path index an integer in [0, 2**62) so its stream keys fit uint64
        kwargs = {"n_paths": 2, "seed": 1} if entry is monte_carlo else {"seed": 1}
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            entry(table1_spec(), FIXED, **kwargs)

    def test_value_function_consistency_partial_policy(self):
        # Monte Carlo mean within 3 standard errors of theta(0, 0, 0.5)
        spec = table1_spec()
        surf = solve_partial(spec, m_pi=100)
        policy = PartialInfoPolicy(surf)
        summary = monte_carlo(spec, policy, n_paths=4000, seed=3, report_points=100)
        theta0 = surf.theta_at(0.0, 0, 0.5)
        assert abs(summary.mean_pnl - theta0) < 3.0 * summary.stderr

    def test_suboptimal_policy_earns_less(self):
        spec = table1_spec()
        surf = solve_partial(spec, m_pi=100)
        opt = monte_carlo(spec, PartialInfoPolicy(surf), n_paths=3000, seed=7, report_points=100)
        fix = monte_carlo(spec, FIXED, n_paths=3000, seed=7, report_points=100)
        paired_se = float(np.std(fix.pnls - opt.pnls, ddof=1) / math.sqrt(3000))
        assert fix.mean_pnl <= opt.mean_pnl + 3.0 * paired_se


class TestFilterStep:
    """The default belief step against h = 1e-4 on the partial policy, at the
    per-path tolerances that chose the default: P&L within 1e-10 and belief
    within 2e-7, with equal fill counts.  70 report rows put the report times
    off the step nodes, so the recorded beliefs come from dense output."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = table1_spec()
        policy = small_policy(spec, "PARTIAL")
        kwargs = dict(n_paths=8, seed=12, report_points=70, export_paths=8)
        return (
            monte_carlo(spec, policy, **kwargs),
            monte_carlo(spec, policy, h_target=1e-4, **kwargs),
        )

    def test_default_step_matches_fine_step(self, runs):
        coarse, fine = runs
        np.testing.assert_array_equal(coarse.fills_bid_paths, fine.fills_bid_paths)
        np.testing.assert_array_equal(coarse.fills_ask_paths, fine.fills_ask_paths)
        assert np.max(np.abs(coarse.pnls - fine.pnls)) < 1e-10
        for a, b in zip(coarse.records, fine.records):
            assert np.max(np.abs(a.probs[-1] - b.probs[-1])) < 2e-7

    def test_report_rows_match_fine_step(self, runs):
        coarse, fine = runs
        for a, b in zip(coarse.records, fine.records):
            np.testing.assert_array_equal(a.times, b.times)
            rows = [i for i, side in enumerate(a.event_side) if side == ""]
            assert len(rows) == 71
            assert np.max(np.abs(a.probs[rows] - b.probs[rows])) < 2e-7


class TestWithRegime:
    def test_frozen_regime_filter_converges(self):
        # zero generator, chain frozen in its initial draw: the filter should
        # move toward the true regime on average
        spec = with_params(table1_spec(), generator_Q=np.zeros((2, 2)))
        drift_toward_truth = []
        for seed in range(30):
            rec, ypath = simulate_with_regime(
                spec, FIXED, seed=seed, report_points=50, h_target=5e-3
            )
            y0 = ypath[0][1]
            pi1_end = rec.probs[-1, 0]
            drift_toward_truth.append(pi1_end - 0.5 if y0 == 0 else 0.5 - pi1_end)
        assert np.mean(drift_toward_truth) > 0.05

    def test_uninformative_orders_leave_filter_deterministic(self):
        # identical intensities: the belief follows the generator ODE alone
        base = table1_spec()
        spec = with_params(base, regimes=(base.regimes[0], base.regimes[0]))
        ends = []
        for seed in (1, 2):
            rec, _ = simulate_with_regime(spec, FIXED, seed=seed)
            ends.append(rec.probs[-1, 0])
        assert ends[0] == pytest.approx(ends[1], abs=1e-9)
        assert ends[0] == pytest.approx(0.5, abs=1e-6)  # symmetric Q fixed point

    def test_fills_jump_belief_down(self):
        spec = table1_spec()
        rec, _ = simulate_with_regime(spec, FIXED, seed=2)
        fill_times = {f.time for f in rec.fills}
        for i, (t, side) in enumerate(zip(rec.times, rec.event_side)):
            if side and i > 0:
                assert rec.probs[i, 0] < rec.probs[i - 1, 0]

    def test_regime_path_sorted_within_horizon(self):
        spec = table1_spec()
        path = draw_regime_path(spec, np.random.default_rng(5))
        times = [p[0] for p in path]
        assert times == sorted(times)
        assert all(0 <= y <= 1 for _, y in path)
        assert times[0] == 0.0 and times[-1] < spec.horizon_T

    def test_full_info_policy_needs_regime(self):
        spec = table1_spec()
        surf = solve_constrained(spec, n_steps=50)
        with pytest.raises(NumericsError, match="regime"):
            monte_carlo(spec, FullInfoPolicy(surf), n_paths=2, seed=1)

    def test_full_info_policy_with_regime_runs(self):
        spec = table1_spec()
        surf = solve_constrained(spec, n_steps=100)
        rec, ypath = simulate_with_regime(spec, FullInfoPolicy(surf), seed=6)
        assert np.isfinite(rec.pnl_penalized)
        assert abs(rec.n_final) <= 3


class TestBound:
    def test_bound_violation_detected(self):
        # a policy whose advertised minimum spread lies above its quotes:
        # after the first fill pulls the belief toward the liquid regime the
        # observable rate at 0.04 exceeds the dominator computed at 0.05
        class Lying(FixedSpreadPolicy):
            def min_spreads(self):
                return 0.05, 0.05

        spec = table1_spec()
        with pytest.raises(NumericsError, match="thinning bound"):
            for seed in range(20):
                simulate_path(spec, Lying(0.04, 0.04), seed=seed)

    def test_stub_policy_sides_never_fill(self):
        pol = FixedSpreadPolicy(STUB_SPREAD, 0.04)
        rec = simulate_path(table1_spec(), pol, seed=4)
        assert all(f.side == "ask" for f in rec.fills)


class TestLookupDomain:
    @pytest.fixture(scope="class")
    def partial(self):
        return PartialInfoPolicy(solve_partial(table1_spec(), m_pi=20))

    def test_partial_batch_rejects_belief_outside_unit_interval(self, partial):
        with pytest.raises(ValueError, match="belief"):
            partial.quotes_batch(np.array([0.5]), np.array([0]), np.array([1.5]))

    def test_partial_batch_rejects_time_outside_horizon(self, partial):
        with pytest.raises(ValueError, match="outside"):
            partial.quotes_batch(np.array([-1.0]), np.array([0]), np.array([0.5]))

    def test_partial_batch_clamps_time_within_slack(self, partial):
        n, pi1 = np.array([0]), np.array([0.3])
        at_end = partial.quotes_batch(np.array([1.0]), n, pi1)
        past = partial.quotes_batch(np.array([1.0 + 1e-13]), n, pi1)
        assert at_end == past

    def test_partial_batch_matches_scalar_policy(self, partial):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 1.0, 200)
        n = rng.integers(-3, 4, 200)
        pi1 = rng.uniform(0.0, 1.0, 200)
        scalar = [hjb_partial_policy(partial.surface, t[i], int(n[i]), pi1[i]) for i in range(200)]
        batch = partial.quotes_batch(t, n, pi1)
        np.testing.assert_array_equal(batch, np.array(scalar).T)
        assert partial.quotes(t[5], int(n[5]), pi1[5]) == (batch[0][5], batch[1][5])

    @pytest.mark.parametrize("n", [-4, 4])
    def test_partial_batch_rejects_inventory_beyond_cap(self, partial, n):
        with pytest.raises(ValueError, match=r"inventory .* outside \[-3, 3\]"):
            partial.quotes_batch(np.array([0.5, 0.5]), np.array([0, n]), np.array([0.3, 0.3]))

    @pytest.mark.parametrize("n", [-4, 4])
    def test_full_batch_rejects_inventory_beyond_cap(self, n):
        policy = small_policy(table1_spec(), "FULL")
        with pytest.raises(ValueError, match=r"inventory .* outside \[-3, 3\]"):
            policy.quotes_batch(np.array([0.5]), np.array([n]), np.array([0.3]), np.array([0]))

    def test_full_batch_matches_scalar_policy_and_checks_belief(self):
        policy = small_policy(table1_spec(), "FULL")
        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, 1.0, 100)
        n = rng.integers(-3, 4, 100)
        y = rng.integers(0, 2, 100)
        scalar = [full_policy(policy.surface, t[i], int(n[i]), int(y[i]) + 1) for i in range(100)]
        np.testing.assert_array_equal(policy.quotes_batch(t, n, np.full(100, 0.5), y), np.array(scalar).T)
        with pytest.raises(ValueError, match="belief"):
            policy.quotes_batch(t, n, np.full(100, -0.5), y)


SURFACES = {
    "full-table1": lambda: FullInfoPolicy(solve_constrained(table1_spec(), n_steps=50)),
    "full-logistic": lambda: FullInfoPolicy(solve_constrained(load_config(LOGISTIC), n_steps=50)),
    "partial-table1": lambda: PartialInfoPolicy(solve_partial(table1_spec(), m_pi=50)),
}
RANGE_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestQuotesWithinTheirNodes:
    """A surface policy's finite quote lies within the range of the table
    values at its bracketing nodes: 2 time levels for the full policy, 2
    time levels by 2 belief nodes for the partial one.  So no quote falls
    below ``min_spreads``, which is what keeps the engine's thinning
    dominator above every arrival rate."""

    @pytest.fixture(scope="class", params=list(SURFACES))
    def surface_policy(self, request):
        return SURFACES[request.param]()

    @RANGE_PROPERTY
    @given(
        t=st.floats(0.0, 1.0),
        n=st.integers(-3, 3),
        x=st.floats(0.0, 1.0),  # the belief, or the regime as x < 0.5
    )
    def test_quote_within_bracketing_nodes(self, surface_policy, t, n, x):
        surf = surface_policy.surface
        if isinstance(surface_policy, FullInfoPolicy):
            quotes, cols = full_policy(surf, t, n, 1 + (x >= 0.5)), [int(x >= 0.5)]
        else:
            quotes, cells = hjb_partial_policy(surf, t, n, x), len(surf.pi_grid) - 1
            j = min(int(x * cells), cells - 1)
            cols = [j, j + 1]
        grid = surf.time_grid
        s = min(max(int(np.searchsorted(grid, t, side="right")) - 1, 0), len(grid) - 2)
        row = n + 3
        for quote, table, floor in zip(quotes, (surf.spread_bid, surf.spread_ask), surface_policy.min_spreads()):
            nodes = table[s : s + 2, row, cols]
            if quote == STUB_SPREAD:
                assert np.all(nodes == STUB_SPREAD)
                continue
            assert nodes.min() <= quote <= nodes.max()
            assert quote >= floor
