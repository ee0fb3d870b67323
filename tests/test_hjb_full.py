import math
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    comparison_bounds_loop,
    exponential_closed_form,
    policy_loop,
    residual_report,
    rhs_loop,
    solve_loop,
    solve_unconstrained,
    table_policy_loop,
)
from scipy.integrate import quad

from regimemm import hjb_full
from regimemm.errors import NumericsError, UnsupportedConfigError
from regimemm.hjb_full import (
    SPREAD_TOLERANCE,
    THETA_TOLERANCE,
    _Plan,
    _rhs,
    comparison_bounds,
    policy,
    solve_constrained,
    surface_from_csv,
    surface_to_csv,
)
from regimemm.intensity import STUB_SPREAD, IntensityFamily, hamiltonian_value, optimal_spread
from regimemm.model import (
    ModelSpec,
    RegimeSpec,
    format_config,
    load_config,
    table1_spec,
    validate,
    with_params,
)
from regimemm.simulate import FullInfoPolicy, monte_carlo

ROOT = Path(__file__).resolve().parent.parent

E = math.e


def one_regime_spec(*, c=0.0, mu=0.0, zeta=0.1, a=2.0, b=25.0, n_star=3, T=1.0):
    lam = IntensityFamily.exponential(a, b)
    return ModelSpec(
        horizon_T=T,
        drift_mu=mu,
        vol_sigma=0.1,
        risk_aversion_gamma=0.0,
        running_penalty_zeta=zeta,
        terminal_cost_c=c,
        inventory_cap_Nstar=n_star,
        spread_lo=-10.0,
        spread_hi=10.0,
        regimes=(RegimeSpec("only", lam, lam),),
        generator_Q=np.zeros((1, 1)),
        initial_filter_mu0=np.array([1.0]),
    )


def mixed_family_spec():
    """table1 with a different curve on each side: regime 1's ask curve is
    regime 2's bid curve, and both logistic curves appear once."""
    shared = IntensityFamily.exponential(6.0, 25.0)
    regimes = (
        RegimeSpec("one", IntensityFamily.logistic(2.0, 25.0, 1.0), shared),
        RegimeSpec("two", shared, IntensityFamily.logistic(10.0, 25.0, 1.0)),
    )
    return with_params(table1_spec(), regimes=regimes, risk_aversion_gamma=0.5)


def distinct_decay_spec():
    """table1 at gamma = 0.5 with a different decay rate b on every regime
    and side: four exponential curves that share one maximizer call."""
    exp = IntensityFamily.exponential
    regimes = (
        RegimeSpec("slow", exp(2.0, 25.0), exp(2.0, 20.0)),
        RegimeSpec("fast", exp(10.0, 30.0), exp(10.0, 15.0)),
    )
    return with_params(table1_spec(), regimes=regimes, risk_aversion_gamma=0.5)


def logistic_spec():
    """perfbench's logistic market: two logistic curves, one per regime,
    that share one maximizer call."""
    return load_config(ROOT / "perfbench" / "logistic.cfg")


# the specs whose grouped maximizer calls are checked against per-regime loops
GROUPING_SPECS = pytest.mark.parametrize(
    "make_spec",
    [table1_spec, distinct_decay_spec, mixed_family_spec, logistic_spec],
    ids=["table1", "distinct_decay", "mixed", "logistic"],
)


def off_node_points(size=300):
    """Random lookups (t, n, i) off every time node, both caps included."""
    rng = np.random.default_rng(17)
    t = rng.uniform(0.0, 1.0, size)
    return t, rng.integers(-3, 4, size), rng.integers(1, 3, size)


def recomputed_gap(surf, t, n, i):
    """Largest |policy - policy_loop| over the quoted sides of the points;
    both put the stub on exactly the blocked sides."""
    gap = 0.0
    for quoted, ref in zip(policy(surf, t, n, i), policy_loop(surf, t, n, i)):
        assert np.array_equal(quoted == STUB_SPREAD, ref == STUB_SPREAD)
        on = ref != STUB_SPREAD
        gap = max(gap, float(np.max(np.abs(quoted[on] - ref[on]))))
    return gap


class TestSolveConstrained:
    def test_terminal_condition_exact(self):
        surf = solve_constrained(table1_spec(terminal_cost_c=0.01), n_steps=50)
        levels = np.arange(-3, 4)
        np.testing.assert_array_equal(
            surf.theta[-1], np.repeat((-0.01 * levels**2)[:, None], 2, axis=1)
        )

    def test_symmetric_market_theta_even_in_n(self):
        surf = solve_constrained(one_regime_spec(), n_steps=300)
        np.testing.assert_allclose(surf.theta, surf.theta[:, ::-1, :], atol=1e-12)

    def test_comparison_sandwich_on_full_grid(self):
        spec = table1_spec(terminal_cost_c=0.01)
        surf = solve_constrained(spec, n_steps=500)
        k_up, k_low = comparison_bounds(spec)
        T = spec.horizon_T
        assert np.all(surf.theta <= k_up * T + 1e-12)
        assert np.all(surf.theta >= -k_up * T - k_low - 1e-12)

    @pytest.mark.parametrize(
        "config", ["configs/table1.cfg", "configs/table1_terminal_cost.cfg", "configs/logistic.cfg"]
    )
    def test_coarse_march_leaves_the_sandwich_and_raises(self, config):
        # steps 1 to 3 leave the sandwich on every shipped config; 10 and up stay inside
        spec = load_config(ROOT / config)
        for n_steps in (1, 2, 3):
            with pytest.raises(NumericsError, match="unstable"):
                solve_constrained(spec, n_steps=n_steps)
        solve_constrained(spec, n_steps=10)

    def test_sandwich_constants_from_hamiltonians_at_zero(self):
        spec = table1_spec()
        k_up, k_low = comparison_bounds(spec)
        vals = []
        for n in range(-3, 4):
            for i, regime in enumerate(spec.regimes):
                v = -0.5 * 0.1**2 * n**2 * 0.1
                if n < 3:
                    v += hamiltonian_value(regime.bid_intensity, 0.0, 0.0, (-10, 10))
                if -n < 3:
                    v += hamiltonian_value(regime.ask_intensity, 0.0, 0.0, (-10, 10))
                vals.append(abs(v))
        assert k_up == pytest.approx(max(vals), rel=1e-12)
        assert k_low == 0.0

    @pytest.mark.parametrize(
        "make_spec",
        [
            table1_spec,
            lambda: with_params(table1_spec(), risk_aversion_gamma=0.5),
            lambda: load_config(ROOT / "perfbench" / "logistic.cfg"),
            lambda: load_config(ROOT / "configs" / "table1_terminal_cost.cfg"),
        ],
        ids=["table1", "table1_gamma", "logistic", "terminal_cost"],
    )
    def test_sandwich_constants_equal_the_per_node_loop(self, make_spec):
        spec = make_spec()
        assert comparison_bounds(spec) == comparison_bounds_loop(spec)

    @pytest.mark.parametrize(
        "make_spec",
        [table1_spec, lambda: load_config(ROOT / "perfbench" / "logistic.cfg")],
        ids=["table1", "logistic"],
    )
    def test_spread_tables_equal_per_level_optimal_spread(self, make_spec):
        spec = make_spec()
        surf = solve_constrained(spec, n_steps=50)
        gamma, bounds = spec.risk_aversion_gamma, spec.spread_bounds
        for s, theta in enumerate(surf.theta):
            for i, regime in enumerate(spec.regimes):
                d_bid = theta[1:, i] - theta[:-1, i]
                d_ask = theta[:-1, i] - theta[1:, i]
                bid = optimal_spread(regime.bid_intensity, gamma, d_bid, bounds)
                ask = optimal_spread(regime.ask_intensity, gamma, d_ask, bounds)
                assert np.array_equal(surf.spread_bid[s, :-1, i], bid)
                assert np.array_equal(surf.spread_ask[s, 1:, i], ask)
        assert np.all(surf.spread_bid[:, -1] == STUB_SPREAD)
        assert np.all(surf.spread_ask[:, 0] == STUB_SPREAD)

    @pytest.mark.parametrize(
        "make_spec",
        [
            table1_spec,
            lambda: load_config(ROOT / "perfbench" / "logistic.cfg"),
            mixed_family_spec,
            distinct_decay_spec,
        ],
        ids=["table1", "logistic", "mixed", "distinct_decay"],
    )
    def test_rhs_equals_the_per_regime_loop(self, make_spec):
        # one Hamiltonian call per plan group gives the same bits as one per
        # regime and side
        spec = make_spec()
        plan = _Plan.build(spec)
        levels = spec.inventory_levels().astype(float)
        rng = np.random.default_rng(5)
        for _ in range(3):
            panel = rng.normal(0.0, 0.05, size=(levels.size, spec.n_regimes))
            assert np.array_equal(_rhs(plan, panel), rhs_loop(spec, levels, panel))

    @GROUPING_SPECS
    def test_solve_equals_the_per_regime_march(self, make_spec):
        spec = make_spec()
        surf, ref = solve_constrained(spec, n_steps=200), solve_loop(spec, 200)
        assert np.array_equal(surf.theta, ref.theta)
        assert np.array_equal(surf.spread_bid, ref.spread_bid)
        assert np.array_equal(surf.spread_ask, ref.spread_ask)

    def test_exponential_curves_form_one_group(self):
        assert len(_Plan.build(table1_spec()).groups) == 1
        assert len(_Plan.build(distinct_decay_spec()).groups) == 1
        assert len(_Plan.build(logistic_spec()).groups) == 1
        # the shared exponential curve, then both logistic curves
        assert len(_Plan.build(mixed_family_spec()).groups) == 2

    def test_spread_symmetry_about_risk_neutral_value(self):
        surf = solve_constrained(table1_spec(), n_steps=400)
        n_star = 3
        for n in (1, 2, 3):
            lhs = 1.0 / 25.0 - surf.spread_ask[:, n + n_star, :]
            rhs = surf.spread_ask[:, (1 - n) + n_star, :] - 1.0 / 25.0
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_ask_spread_monotone_in_inventory_near_expiry(self):
        surf = solve_constrained(table1_spec(), n_steps=400)
        tg = surf.time_grid
        for s in np.flatnonzero(tg >= 0.8 * tg[-1]):
            table = surf.spread_ask[s, 1:, :]  # ask defined for n > -N*
            assert np.all(np.diff(table, axis=0) <= 1e-10)

    def test_rk4_order_of_convergence(self):
        spec = table1_spec()
        ref = solve_constrained(spec, n_steps=4000).theta[0]
        errs = [
            np.max(np.abs(solve_constrained(spec, n_steps=m).theta[0] - ref))
            for m in (125, 250)
        ]
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 24.0

    @staticmethod
    def assert_closed_form_holds(make_spec):
        """θ at every node within 1e-11 of the closed form, for
        γ ∈ {0, 0.5, 2} and c ∈ {0, 0.01}; RK4's error there is at most
        4.2e-12 (with the drift) at 1000 steps."""
        for gamma in (0.0, 0.5, 2.0):
            for c in (0.0, 0.01):
                spec = with_params(make_spec(c), risk_aversion_gamma=gamma)
                surf = solve_constrained(spec, n_steps=1000)
                oracle = exponential_closed_form(spec, surf.time_grid)
                np.testing.assert_allclose(surf.theta, oracle, rtol=0, atol=1e-11, err_msg=f"{gamma=} {c=}")

    def test_one_regime_matches_independent_oracle(self):
        self.assert_closed_form_holds(lambda c: one_regime_spec(c=c, mu=0.3))

    def test_regimes_that_never_switch_match_the_closed_form(self):
        self.assert_closed_form_holds(
            lambda c: with_params(table1_spec(terminal_cost_c=c), generator_Q=np.zeros((2, 2)))
        )

    def test_residual_small_at_midpoints(self):
        surf = solve_constrained(table1_spec(), n_steps=2000)
        assert residual_report(surf) < 1e-6

    def test_risk_averse_solve_runs(self):
        spec = with_params(table1_spec(), risk_aversion_gamma=0.5)
        assert validate(spec) == []
        surf = solve_constrained(spec, n_steps=200)
        assert np.all(np.isfinite(surf.theta))
        k_up, k_low = comparison_bounds(spec)
        assert np.all(surf.theta <= k_up * spec.horizon_T + 1e-12)
        assert np.all(surf.theta >= -k_up * spec.horizon_T - k_low - 1e-12)


class TestPolicy:
    def test_terminal_risk_neutral_value(self):
        surf = solve_constrained(table1_spec(), n_steps=100)
        for n in (-2, 0, 2):
            for i in (1, 2):
                bid, ask = policy(surf, 1.0, n, i)
                assert bid == pytest.approx(0.04, abs=1e-9)
                assert ask == pytest.approx(0.04, abs=1e-9)

    def test_terminal_cost_tilts_quotes(self):
        surf = solve_constrained(table1_spec(terminal_cost_c=0.01), n_steps=100)
        _, ask = policy(surf, 1.0, 0, 1)
        assert ask == pytest.approx(0.05, abs=1e-9)
        bid, _ = policy(surf, 1.0, 0, 1)
        assert bid == pytest.approx(0.05, abs=1e-9)  # symmetric at n = 0

    def test_blocked_sides_are_stubs(self):
        surf = solve_constrained(table1_spec(), n_steps=50)
        bid, ask = policy(surf, 0.5, 3, 1)
        assert bid == STUB_SPREAD and math.isfinite(ask)
        bid, ask = policy(surf, 0.5, -3, 2)
        assert ask == STUB_SPREAD and math.isfinite(bid)

    def test_interpolation_between_nodes(self):
        surf = solve_constrained(table1_spec(), n_steps=50)
        t_mid = 0.5 * (surf.time_grid[10] + surf.time_grid[11])
        th = 0.5 * (surf.theta[10] + surf.theta[11])
        d = th[4 - 1, 0] - th[4, 0]  # ask difference at n = 1, regime 1
        _, ask = policy(surf, t_mid, 1, 1)
        assert ask == pytest.approx(0.04 - d, abs=1e-12)

    def test_broadcast_points_match_scalar_calls(self):
        surf = solve_constrained(table1_spec(), n_steps=50)
        times = np.linspace(0.0, 1.0, 7)[:, None, None]
        levels = np.arange(-3, 4)[:, None]
        regimes = np.array([1, 2])
        bids, asks = policy(surf, times, levels, regimes)
        thetas = surf.theta_at(times, levels, regimes)
        assert bids.shape == asks.shape == thetas.shape == (7, 7, 2)
        for (a, r, k), theta in np.ndenumerate(thetas):
            t, n, i = float(times[a, 0, 0]), int(levels[r, 0]), int(regimes[k])
            assert (bids[a, r, k], asks[a, r, k]) == policy(surf, t, n, i)
            assert theta == surf.theta_at(t, n, i)

    @GROUPING_SPECS
    def test_time_nodes_equal_the_recomputed_policy(self, make_spec):
        """At a stored time level the table read is the maximizer at that
        level's theta differences, blocked sides included, bit for bit."""
        surf = solve_constrained(make_spec(), n_steps=50)
        t, n, i = surf.time_grid[:, None, None], np.arange(-3, 4)[:, None], np.array([1, 2])
        bids, asks = policy(surf, t, n, i)
        ref_bids, ref_asks = policy_loop(surf, t, n, i)
        assert bids.shape == (51, 7, 2)
        assert np.array_equal(bids, ref_bids)
        assert np.array_equal(asks, ref_asks)
        assert np.any(bids == STUB_SPREAD) and np.any(asks == STUB_SPREAD)

    @GROUPING_SPECS
    def test_batch_equals_the_table_loop(self, make_spec):
        surf = solve_constrained(make_spec(), n_steps=50)
        t, n, i = off_node_points()
        bids, asks = policy(surf, t, n, i)
        ref_bids, ref_asks = table_policy_loop(surf, t, n, i)
        assert np.array_equal(bids, ref_bids)
        assert np.array_equal(asks, ref_asks)
        assert np.any(bids == STUB_SPREAD) and np.any(asks == STUB_SPREAD)
        for a in range(0, t.size, 37):
            bid, ask = policy(surf, float(t[a]), int(n[a]), int(i[a]))
            assert (bid, ask) == (bids[a], asks[a])

    @pytest.mark.parametrize(
        "make_spec", [table1_spec, distinct_decay_spec], ids=["table1", "distinct_decay"]
    )
    def test_exponential_tables_equal_the_recomputed_policy_off_node(self, make_spec):
        """An exponential curve's spread is linear in d while the bounds do
        not bind, so interpolating the tables is recomputing the spreads."""
        surf = solve_constrained(make_spec(), n_steps=50)
        assert recomputed_gap(surf, *off_node_points()) <= 1e-15

    def test_smooth_curve_gap_to_the_recomputed_policy_is_second_order(self):
        """On logistic curves the tables and the recomputed spreads differ
        off-node by the time interpolation's O(dt^2) error."""
        spec = logistic_spec()
        gaps = [recomputed_gap(solve_constrained(spec, n_steps=m), *off_node_points()) for m in (250, 500, 1000)]
        assert 0 < gaps[-1] < 1e-8
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse >= 3.0 * fine

    @pytest.mark.parametrize("n, i", [(4, 1), (-4, 2), (0.5, 1), (0, 0), (0, 3)])
    def test_lookup_off_the_grid_rejected(self, n, i):
        surf = solve_constrained(table1_spec(), n_steps=50)
        with pytest.raises(ValueError, match="inventory|regime"):
            surf.theta_at(0.5, n, i)
        with pytest.raises(ValueError, match="inventory|regime"):
            policy(surf, 0.5, n, i)


class TestRegimeTrueMonteCarlo:
    """The simulation oracle for theta_full: regime-true paths under the
    solved policy earn mu0 . theta_full(0, n0, .) on average."""

    @pytest.mark.parametrize(
        "config", ["table1.cfg", "logistic.cfg"], ids=["table1", "logistic"]
    )
    def test_mean_pnl_matches_theta_within_3_se(self, config):
        spec = load_config(ROOT / "configs" / config)
        surf = solve_constrained(spec)  # the step search's surface, as users get it
        summary = monte_carlo(spec, FullInfoPolicy(surf), 10_000, seed=1, regime_true=True)
        regimes = np.arange(1, spec.n_regimes + 1)
        target = float(spec.initial_filter_mu0 @ surf.theta_at(0.0, spec.initial_inventory_n0, regimes))
        assert abs(summary.mean_pnl - target) < 3.0 * summary.stderr


class TestStepSearch:
    """The default step count: the doubling search, its estimates and its
    failures."""

    SHIPPED = pytest.mark.parametrize(
        "config", ["table1.cfg", "table1_terminal_cost.cfg", "logistic.cfg"],
        ids=["table1", "terminal_cost", "logistic"],
    )

    @SHIPPED
    def test_estimates_match_the_true_errors(self, config):
        # against a march of 8x the chosen count: theta at every node, and
        # the spreads at 10^4 random off-node lookups.  Measured ratios of
        # estimate to error are 1.03-1.04 (theta) and 1.005-1.013 (spreads)
        spec = load_config(ROOT / "configs" / config)
        surf = solve_constrained(spec)
        n_steps = surf.march.n_steps
        assert len(surf.time_grid) == n_steps + 1
        ref = solve_constrained(spec, 8 * n_steps)
        theta_error = np.max(np.abs(surf.theta - ref.theta[::8]))
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, spec.horizon_T, 10_000)
        n, i = rng.integers(-3, 4, t.size), rng.integers(1, 3, t.size)
        spread_error = 0.0
        for side, ref_side in zip(policy(surf, t, n, i), policy(ref, t, n, i)):
            on = ref_side != STUB_SPREAD
            spread_error = max(spread_error, np.max(np.abs(side[on] - ref_side[on])))
        assert 0.8 <= surf.march.theta_error / theta_error <= 1.25
        assert 0.8 <= surf.march.spread_error / spread_error <= 1.25
        assert surf.march.theta_error <= THETA_TOLERANCE and surf.march.spread_error <= SPREAD_TOLERANCE

    def test_each_rung_is_the_next_ones_partner(self, monkeypatch):
        # every shipped config stops at 400: three marches of 100, 200 and 400
        # steps, each 4 right-hand sides a step, plus the sandwich's one at
        # the zero panel, and the searched surface is the 400-step one
        calls = []
        monkeypatch.setattr(hjb_full, "_rhs", lambda plan, y: calls.append(1) or _rhs(plan, y))
        for config in ("table1.cfg", "table1_terminal_cost.cfg", "logistic.cfg"):
            spec = load_config(ROOT / "configs" / config)
            calls.clear()
            surf = solve_constrained(spec)
            assert surf.march.n_steps == 400, config
            assert len(calls) == 4 * (100 + 200 + 400) + 1, config
            fixed = solve_constrained(spec, 400)
            assert fixed.march is None
            for name in ("time_grid", "theta", "spread_bid", "spread_ask"):
                np.testing.assert_array_equal(getattr(surf, name), getattr(fixed, name))

    def test_unstable_march_stops_at_its_first_level(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hjb_full, "_rhs", lambda plan, y: calls.append(1) or _rhs(plan, y))
        spec = with_params(table1_spec(), generator_Q=np.array([[-5e6, 5e6], [5e6, -5e6]]))
        unstable = r"at 1000 steps is unstable: .* at t = 0\.999,.*take more time steps"
        with pytest.raises(NumericsError, match=unstable):
            solve_constrained(spec, 1000)
        assert len(calls) == 1 + 4

    @pytest.mark.parametrize(
        "cap, why",
        [
            (400, "at 400 steps has no stable march at half the steps"),
            (800, "at 800 steps misses the error tolerance"),
        ],
        ids=["no-partner", "tolerance"],
    )
    def test_search_fails_past_its_cap(self, monkeypatch, cap, why):
        # Q = +-300 leaves the sandwich at 100 and 200 steps, and the
        # estimates first pass at 6400
        monkeypatch.setattr(hjb_full, "SEARCH_CAP", cap)
        spec = with_params(table1_spec(), generator_Q=np.array([[-300.0, 300.0], [300.0, -300.0]]))
        with pytest.raises(NumericsError, match=f"{why}.*; {cap} steps is the most the step search tries"):
            solve_constrained(spec)

    def test_report_headers_skipped_on_read(self):
        surf = solve_constrained(table1_spec())
        text = surface_to_csv(surf)
        rep = surf.march
        headers = dict(line[2:].split(" = ") for line in text.splitlines() if line.startswith("# march_"))
        assert headers == {
            "march_n_steps": str(rep.n_steps),
            "march_theta_error": f"{rep.theta_error:.17g}",
            "march_spread_error": f"{rep.spread_error:.17g}",
        }
        back = surface_from_csv(text)
        assert format_config(back.spec) == format_config(surf.spec)
        np.testing.assert_array_equal(back.theta, surf.theta)


class TestGridArguments:
    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
    def test_bad_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            solve_constrained(table1_spec(), n_steps=n_steps)


class TestUnconstrained:
    """The unconstrained oracle, and ``solve_constrained`` approaching it as
    the inventory cap grows."""

    def unconstrained_spec(self, *, mu=0.0, k1=True):
        lam1 = IntensityFamily.exponential(2.0, 25.0)
        lam2 = IntensityFamily.exponential(10.0, 25.0)
        if k1:
            regimes, q, mu0 = (RegimeSpec("only", lam1, lam1),), np.zeros((1, 1)), [1.0]
        else:
            regimes = (RegimeSpec("low", lam1, lam1), RegimeSpec("high", lam2, lam2))
            q, mu0 = np.zeros((2, 2)), [0.5, 0.5]
        return ModelSpec(
            horizon_T=1.0,
            drift_mu=mu,
            vol_sigma=0.1,
            risk_aversion_gamma=0.0,
            running_penalty_zeta=0.0,
            terminal_cost_c=0.0,
            inventory_cap_Nstar=3,  # the oracle ignores it: its phi is the N* -> inf limit
            spread_lo=-10.0,
            spread_hi=10.0,
            regimes=regimes,
            generator_Q=np.asarray(q),
            initial_filter_mu0=np.asarray(mu0),
        )

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
    def test_bad_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            solve_unconstrained(self.unconstrained_spec(), n_steps=n_steps)

    def test_driftless_linear_profile(self):
        sol = solve_unconstrained(self.unconstrained_spec(), n_steps=200)
        expected = 2.0 * (2.0 / 25.0) * math.exp(-1.0) * (1.0 - sol.time_grid)
        np.testing.assert_allclose(sol.phi[:, 0], expected, atol=1e-12)

    def test_terminal_value_zero(self):
        sol = solve_unconstrained(self.unconstrained_spec(mu=0.4), n_steps=100)
        np.testing.assert_array_equal(sol.phi[-1], 0.0)

    def test_decoupled_quadrature_oracle(self):
        spec = self.unconstrained_spec(mu=0.1, k1=False)
        sol = solve_unconstrained(spec, n_steps=400)

        def integrand(u, a):
            d = 0.1 * (1.0 - u)
            return (a / 25.0) * math.exp(-1.0) * (math.exp(25 * d) + math.exp(-25 * d))

        for i, a in enumerate((2.0, 10.0)):
            expected, _ = quad(integrand, 0.0, 1.0, args=(a,), epsrel=1e-12, limit=200)
            assert sol.phi_at(0.0)[i] == pytest.approx(expected, rel=1e-8)

    def test_theta_decomposition(self):
        spec = self.unconstrained_spec(mu=0.4)
        sol = solve_unconstrained(spec, n_steps=100)
        assert sol.theta_at(0.25, 3, 1) == pytest.approx(
            0.4 * 3 * 0.75 + sol.phi_at(0.25)[0], rel=1e-12
        )

    @pytest.mark.parametrize("i", [0, 3])
    def test_regime_index_outside_one_to_k_rejected(self, i):
        # i = 0 used to read the last regime and i = k + 1 to raise IndexError
        sol = solve_unconstrained(self.unconstrained_spec(mu=0.4, k1=False), n_steps=50)
        with pytest.raises(ValueError, match="regime index"):
            sol.theta_at(0.5, 0, i)
        with pytest.raises(ValueError, match="regime index"):
            sol.theta_at(np.array([0.5, 0.5]), np.array([0, 1]), np.array([1, i]))

    def test_broadcast_points_match_scalar_calls(self):
        sol = solve_unconstrained(self.unconstrained_spec(mu=0.4, k1=False), n_steps=50)
        rng = np.random.default_rng(11)
        t = np.append(rng.uniform(0.0, 1.0, 40), [0.0, 1.0])
        n = rng.integers(-6, 7, len(t))
        i = rng.integers(1, 3, len(t))
        batch = sol.theta_at(t, n, i)
        assert batch.shape == t.shape
        scalar = [sol.theta_at(float(a), int(b), int(c)) for a, b, c in zip(t, n, i)]
        np.testing.assert_array_equal(batch, scalar)
        assert isinstance(scalar[0], float)
        for a, c in zip(t, i):
            assert sol.theta_at(float(a), 0, int(c)) == sol.phi_at(float(a))[c - 1]

    def test_capped_solution_approaches_it_as_the_cap_grows(self):
        # at n = 0 the cap is reached only after N* fills, so the gap shrinks
        # fast in N*: 6.4e-3 at N* = 3, below 1e-12 at N* = 20
        spec = self.unconstrained_spec(mu=0.0, k1=False)
        spec = with_params(spec, generator_Q=np.array([[-5.0, 5.0], [5.0, -5.0]]))
        free = solve_unconstrained(spec, n_steps=200).phi
        gaps = []
        for n_star in (3, 6, 20):
            capped = solve_constrained(with_params(spec, inventory_cap_Nstar=n_star), n_steps=200)
            gaps.append(np.max(np.abs(capped.theta[:, n_star, :] - free)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-12

    def test_precondition_errors(self):
        with pytest.raises(UnsupportedConfigError):
            solve_unconstrained(table1_spec())
        bad = with_params(
            self.unconstrained_spec(), running_penalty_zeta=0.1
        )
        with pytest.raises(UnsupportedConfigError):
            solve_unconstrained(bad)


class TestPersistence:
    def test_round_trip(self):
        surf = solve_constrained(table1_spec(terminal_cost_c=0.01), n_steps=20)
        text = surface_to_csv(surf)
        back = surface_from_csv(text)
        np.testing.assert_allclose(back.theta, surf.theta, rtol=0, atol=0)
        np.testing.assert_allclose(back.spread_bid, surf.spread_bid, rtol=0, atol=0)
        np.testing.assert_allclose(back.time_grid, surf.time_grid, rtol=0, atol=0)
        assert validate(back.spec) == []

    def test_row_count(self):
        surf = solve_constrained(table1_spec(), n_steps=10)
        body = [
            l
            for l in surface_to_csv(surf).splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")
        ]
        assert len(body) == 11 * 7 * 2
