import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    convergence_sup_loop,
    evaluate_loop,
    exponential_closed_form,
    solve_all_levels,
)

from regimemm.errors import UnsupportedConfigError
from regimemm.grid import inventory_row, time_bracket
from regimemm.hjb_full import comparison_bounds, solve_constrained
from regimemm.hjb_full import policy as full_policy
from regimemm.hjb_partial import (
    Stepper,
    convergence_report,
    output_levels,
    policy,
    solve,
    surface_from_csv,
    surface_to_csv,
)
from regimemm.intensity import STUB_SPREAD, IntensityFamily
from regimemm.model import RegimeSpec, table1_spec, two_regime_reduction, with_params


def zero_order_spec(c=0.0):
    """Degenerate market with no orders at all: pure transport + penalties."""
    dead = IntensityFamily.exponential(0.0, 25.0)
    base = table1_spec(terminal_cost_c=c, drift_mu=0.3)
    return with_params(
        base, regimes=(RegimeSpec("dead1", dead, dead), RegimeSpec("dead2", dead, dead))
    )


class TestReducedCoeffs:
    def test_table1_midpoint(self):
        red = two_regime_reduction(table1_spec())
        assert red.q_hat(0.5) == 0.0
        assert red.m_hat(0.5) == 3.0
        assert red.w(0.5) == 1.0

    def test_boundaries(self):
        red = two_regime_reduction(table1_spec())
        assert (red.q_hat(0.0), red.m_hat(0.0), red.w(0.0)) == (5.0, 5.0, 0.0)
        assert (red.q_hat(1.0), red.m_hat(1.0), red.w(1.0)) == (-5.0, 1.0, 0.0)

    def test_named_rejections(self):
        with pytest.raises(UnsupportedConfigError, match="gamma"):
            two_regime_reduction(with_params(table1_spec(), risk_aversion_gamma=0.1))


class TestSolve:
    def test_terminal_slice(self):
        surf = solve(table1_spec(terminal_cost_c=0.01), m_pi=40)
        levels = np.arange(-3, 4)
        expected = np.repeat((-0.01 * levels**2)[:, None], 41, axis=1)
        np.testing.assert_array_equal(surf.theta[-1], expected)

    def test_terminal_spreads_risk_neutral(self):
        surf = solve(table1_spec(), m_pi=40)
        assert np.allclose(surf.spread_bid[-1, :-1, :], 0.04, atol=1e-12)
        assert np.allclose(surf.spread_ask[-1, 1:, :], 0.04, atol=1e-12)

    def test_terminal_spreads_with_cost(self):
        surf = solve(table1_spec(terminal_cost_c=0.01), m_pi=40)
        r0 = inventory_row(3, 0)
        # ask at n=0: 1/b + c; bid at n=0 symmetric
        assert np.allclose(surf.spread_ask[-1, r0, :], 0.05, atol=1e-12)
        assert np.allclose(surf.spread_bid[-1, r0, :], 0.05, atol=1e-12)

    def test_theta_nonincreasing_in_pi(self):
        surf = solve(table1_spec(), m_pi=100)
        diffs = np.diff(surf.theta, axis=2)
        scale = np.maximum(1.0, np.abs(surf.theta[..., :-1]))
        assert np.all(diffs <= 1e-6 * scale)

    def test_theta_pi_zero_at_pure_transport(self):
        spec = zero_order_spec(c=0.01)
        surf = solve(spec, m_pi=30)
        # no orders: theta(t,n,pi) = (mu n - sigma^2 zeta n^2 / 2)(T-t) - c n^2, flat in pi
        levels = np.arange(-3, 4).astype(float)
        for s, t in enumerate(surf.time_grid):
            expected = (0.3 * levels - 0.5 * 0.1**2 * 0.1 * levels**2) * (1.0 - t) - 0.01 * levels**2
            np.testing.assert_allclose(
                surf.theta[s], np.broadcast_to(expected[:, None], surf.theta[s].shape), atol=1e-10
            )

    def test_comparison_sandwich_transfers(self):
        spec = table1_spec()
        surf = solve(spec, m_pi=100)
        k_up, k_low = comparison_bounds(spec)
        assert np.all(surf.theta <= k_up * spec.horizon_T + 1e-9)
        assert np.all(surf.theta >= -k_up * spec.horizon_T - k_low - 1e-9)

    def test_cfl_report_populated(self):
        surf = solve(table1_spec(), m_pi=50)
        rep = surf.cfl_report
        # the report counts the march, which the stored grid no longer mirrors
        assert rep == solve_all_levels(table1_spec(), 50).cfl_report
        assert len(surf.time_grid) == output_levels(50)
        assert rep.max_coefficient > 0
        assert 0 < rep.min_dt <= rep.max_dt
        assert rep.max_dt * rep.max_coefficient <= 1.0 + 1e-9

    def test_fixed_time_grid_auto_refines(self):
        surf = solve(table1_spec(), m_pi=50, m_t=10)
        assert surf.cfl_report.n_steps > 10

    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            solve(with_params(table1_spec(), risk_aversion_gamma=0.3))
        q_bad = np.array([[0.0, 0.0], [5.0, -5.0]])
        with pytest.raises(UnsupportedConfigError, match="q11"):
            solve(with_params(table1_spec(), generator_Q=q_bad))

    def test_doubled_gradient_variant_differs(self):
        s1 = solve(table1_spec(), m_pi=40)
        s2 = solve(table1_spec(), m_pi=40, belief_gradient_scale=2.0)
        assert s2.belief_gradient_scale == 2.0
        mid = abs(s1.theta_at(0.0, 0, 0.5) - s2.theta_at(0.0, 0, 0.5))
        assert mid > 1e-4


class TestOutputGrid:
    """The stored levels against a march that keeps every level."""

    @pytest.fixture(scope="class", params=[0.0, 0.01], ids=["c0", "c0.01"])
    def pair(self, request):
        spec = table1_spec(terminal_cost_c=request.param)
        return solve(spec, m_pi=40), solve_all_levels(spec, 40)

    def test_uniform_grid_of_the_rule(self, pair):
        surf, ref = pair
        np.testing.assert_array_equal(surf.time_grid, np.linspace(0.0, 1.0, output_levels(40)))
        assert surf.cfl_report == ref.cfl_report

    def test_levels_are_the_all_levels_lookup(self, pair):
        surf, ref = pair
        t = surf.time_grid[:, None, None]
        n = surf.spec.inventory_levels()[:, None]
        np.testing.assert_allclose(surf.theta, ref.theta_at(t, n, surf.pi_grid), rtol=0, atol=1e-15)
        bid, ask = policy(ref, t, n, surf.pi_grid)
        np.testing.assert_allclose(surf.spread_bid, bid, rtol=0, atol=1e-15)
        np.testing.assert_allclose(surf.spread_ask, ask, rtol=0, atol=1e-15)

    def test_end_levels_bit_identical(self, pair):
        surf, ref = pair
        for name in ("theta", "spread_bid", "spread_ask"):
            for s in (0, -1):
                np.testing.assert_array_equal(getattr(surf, name)[s], getattr(ref, name)[s])

    def test_stub_rows_stay_stubs(self, pair):
        surf, _ = pair
        assert np.all(surf.spread_bid[:, -1] == STUB_SPREAD)
        assert np.all(surf.spread_ask[:, 0] == STUB_SPREAD)
        assert np.isfinite(surf.spread_bid[:, :-1]).all() and np.isfinite(surf.spread_ask[:, 1:]).all()

    def test_level_count_below_the_march(self):
        for m_pi in (10, 25, 100, 200):
            surf = solve(table1_spec(), m_pi=m_pi)
            assert len(surf.time_grid) == output_levels(m_pi) <= surf.cfl_report.n_steps + 1

    def test_random_lookups_within_half_the_refinement_gap(self):
        spec = table1_spec()
        surf, ref = solve(spec, m_pi=200), solve_all_levels(spec, 200)
        # the stored m_pi = 400 surface stands in for the 2 m_pi solution: its
        # own storage error is a tenth of the gap measured here
        fine = solve(spec, m_pi=400)
        rng = np.random.default_rng(7)
        points = (rng.uniform(0.0, 1.0, 20_000), rng.integers(-3, 4, 20_000), rng.uniform(0.0, 1.0, 20_000))

        def looked_up(s):
            bid, ask = policy(s, *points)  # blocked sides hold the stub
            return s.theta_at(*points), bid[np.isfinite(bid)], ask[np.isfinite(ask)]

        worst = lambda a, b: max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))
        gap, err = worst(looked_up(ref), looked_up(fine)), worst(looked_up(surf), looked_up(ref))
        assert gap > 5e-6
        assert err < 0.5 * gap, (err, gap)

    def test_memory_holds_output_levels_only(self):
        tracemalloc.start()
        try:
            surf = solve(table1_spec(), m_pi=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = surf.theta.nbytes + surf.spread_bid.nbytes + surf.spread_ask.nbytes
        assert nbytes == 3 * output_levels(200) * 7 * 201 * 8
        assert peak < 2 * nbytes


class TestTimeBracket:
    @pytest.mark.parametrize(
        "grid",
        [np.linspace(0.0, 1.0, 284), np.linspace(0.0, 2.5, 2001), np.linspace(0.0, 1.0, 60) ** 2],
        ids=["uniform-284", "uniform-2001", "squares"],
    )
    def test_interval_is_the_right_search(self, grid):
        # the interval is the search's, kept inside the grid, at every node,
        # both neighbouring floats and random times, on uniform and other grids
        hi = grid[-1]
        t = np.concatenate([grid, np.nextafter(grid, hi + 1), np.nextafter(grid, -1.0)])
        t = np.clip(np.concatenate([t, np.random.default_rng(2).uniform(0.0, hi, 5000)]), 0.0, hi)
        s, w = time_bracket(grid, t)
        expected = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
        np.testing.assert_array_equal(s, expected)
        np.testing.assert_array_equal(w, (t - grid[expected]) / (grid[expected + 1] - grid[expected]))
        for x, s_x in zip(t[::53].tolist(), expected[::53]):
            assert time_bracket(grid, x)[0] == s_x


class TestMirror:
    def test_bid_of_n_equals_ask_of_minus_n(self):
        surf = solve(table1_spec(), m_pi=60)
        n_star = 3
        for n in range(-2, 4):  # bid defined for n < N*; mirror ask at -n
            r_bid = n + n_star
            r_ask = -n + n_star
            np.testing.assert_array_equal(
                surf.spread_bid[:, r_bid, :], surf.spread_ask[:, r_ask, :]
            )


class TestEvaluate:
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize(
        "spec",
        [table1_spec(), table1_spec(terminal_cost_c=0.01), zero_order_spec()],
        ids=["table1", "table1-c", "zero-order"],
    )
    def test_matches_closed_form_loop(self, spec, scale):
        # a panel marched a few levels down from T, then random perturbations
        # of it (at noise 1e-2 the table1 rhs reaches 5e2 to 7e5)
        stepper = Stepper(spec, m_pi=24, belief_gradient_scale=scale)
        theta = stepper.terminal_panel()
        for _ in range(25):
            _, rhs, coeff = stepper.evaluate(theta)
            theta = theta + (0.9 / coeff) * rhs
        rng = np.random.default_rng(11)
        for noise in (0.0, 1e-3, 1e-2):
            panel = theta + rng.normal(0.0, noise, theta.shape)
            spreads, rhs, coeff = stepper.evaluate(panel)
            bid, ask, loop_rhs, loop_coeff = evaluate_loop(spec, 24, scale, panel)
            for g, w in zip((*spreads, rhs, coeff), (bid[:-1], ask[1:], loop_rhs, loop_coeff)):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestMonotoneStep:
    def test_random_single_step_perturbations(self):
        spec = table1_spec(terminal_cost_c=0.01)
        stepper = Stepper(spec, m_pi=40)
        rng = np.random.default_rng(42)
        theta = stepper.terminal_panel()
        # walk a few levels down so the panel is generic, then perturb
        for _ in range(25):
            _, rhs, coeff = stepper.evaluate(theta)
            theta = theta + (0.9 / coeff) * rhs
        _, rhs, coeff = stepper.evaluate(theta)
        dt = 0.9 / coeff
        base_new = theta + dt * rhs
        eps = 1e-6
        for _ in range(200):
            r = rng.integers(0, theta.shape[0])
            j = rng.integers(0, theta.shape[1])
            pert = theta.copy()
            pert[r, j] += eps
            _, rhs_p, _ = stepper.evaluate(pert)
            pert_new = pert + dt * rhs_p
            assert np.all(pert_new - base_new >= -1e-12)

    def test_negative_scale_rejected(self):
        # a negative scale flips the upwind coefficients, so no step is monotone
        for scale in (-1.0, math.nan):
            with pytest.raises(ValueError, match="belief_gradient_scale"):
                Stepper(table1_spec(), m_pi=10, belief_gradient_scale=scale)
        with pytest.raises(ValueError, match="belief_gradient_scale"):
            solve(table1_spec(), m_pi=10, m_t=3, belief_gradient_scale=-1.0)


class TestGridArguments:
    @pytest.mark.parametrize("m_pi", [0, -2, 2.5, True])
    def test_bad_belief_cells_rejected(self, m_pi):
        with pytest.raises(ValueError, match="m_pi"):
            Stepper(table1_spec(), m_pi=m_pi)
        with pytest.raises(ValueError, match="m_pi"):
            solve(table1_spec(), m_pi=m_pi)

    @pytest.mark.parametrize("m_t", [0, -5, 2.5, True])
    def test_bad_time_steps_rejected(self, m_t):
        with pytest.raises(ValueError, match="m_t"):
            solve(table1_spec(), m_pi=10, m_t=m_t)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_empty_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon_T"):
            solve(with_params(table1_spec(), horizon_T=horizon), m_pi=10)

    def test_none_is_auto_and_a_count_caps_the_step(self):
        auto = solve(table1_spec(), m_pi=10, m_t=None)
        m_t = 4 * auto.cfl_report.n_steps
        capped = solve(table1_spec(), m_pi=10, m_t=m_t)
        assert capped.cfl_report.n_steps >= m_t > auto.cfl_report.n_steps
        assert capped.cfl_report.max_dt <= 1.0 / m_t * (1 + 1e-12)


class TestConvergence:
    def test_ladder_differences_decrease(self):
        rep = convergence_report(table1_spec(), ladder=(25, 50, 100))
        assert len(rep.sup_differences) == 2
        assert rep.sup_differences[0] > rep.sup_differences[1] > 0

    def test_matches_scalar_lookup_loop(self):
        ladder = (25, 50, 100)
        rep = convergence_report(table1_spec(), ladder=ladder)
        surfaces = [solve(table1_spec(), m_pi=m) for m in ladder]
        probe_times = np.linspace(0.0, 1.0, 41)
        assert rep.sup_differences == convergence_sup_loop(surfaces, probe_times)

    def test_first_order_convergence(self):
        # an upwind scheme of order one halves its error per refinement
        rep = convergence_report(table1_spec(), ladder=(25, 50, 100, 200))
        assert len(rep.ratios) == 2
        assert all(1.6 <= r <= 2.5 for r in rep.ratios), rep.ratios

    def test_identical_regimes_converge_to_the_closed_form(self):
        # both regimes on regime 1's curve: orders carry no information, so
        # theta does not depend on pi and equals the closed form of the
        # frozen (Q = 0) market; the upwind error halves per doubling of m_pi
        base = table1_spec()
        spec = with_params(base, regimes=(base.regimes[0], base.regimes[0]))
        frozen = with_params(spec, generator_Q=np.zeros((2, 2)))
        errors = []
        for m_pi in (50, 100, 200):
            surf = solve(spec, m_pi=m_pi)
            exact = exponential_closed_form(frozen, surf.time_grid)[:, :, :1]
            errors.append(float(np.max(np.abs(surf.theta - exact))))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), (errors, ratios)
        assert errors[-1] < 4e-6

    def test_bad_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(table1_spec(), ladder=(50, 75))

    def test_terminal_cost_differences_localize_near_expiry(self):
        s0 = solve(table1_spec(), m_pi=40)
        s1 = solve(table1_spec(terminal_cost_c=0.01), m_pi=40)
        times = np.linspace(0.0, 1.0, 11)
        worst = []
        for t in times:
            worst.append(
                max(
                    abs(s0.theta_at(t, n, pi) - s1.theta_at(t, n, pi))
                    for n in range(-3, 4)
                    for pi in (0.0, 0.3, 0.7, 1.0)
                )
            )
        # the terminal-cost layer peaks at expiry and decays backward
        assert np.argmax(worst) == len(times) - 1
        assert worst[-1] == pytest.approx(0.09, abs=1e-12)
        assert all(a <= b + 1e-12 for a, b in zip(worst, worst[1:]))


class TestPolicy:
    def test_nonlocal_argument_interpolation(self):
        # a fill from belief 0.5 lands at 0.5 / m_hat(0.5) = 1/6, looked up by
        # linear interpolation between the bracketing grid nodes
        stepper = Stepper(table1_spec(), m_pi=100)
        j = 50  # pi = 0.5
        target = 0.5 / 3.0
        lo = stepper.i0[j]
        assert lo == int(target * 100)
        got = (stepper.pi_grid[lo] * (1 - stepper.wt[j])
               + stepper.pi_grid[lo + 1] * stepper.wt[j])
        assert got == pytest.approx(target, abs=1e-15)
        assert got == pytest.approx(0.16667, abs=5e-6)

    def test_matches_table_at_nodes(self):
        surf = solve(table1_spec(), m_pi=40)
        s = len(surf.time_grid) // 2
        t = float(surf.time_grid[s])
        j = 17
        pi = float(surf.pi_grid[j])
        bid, ask = policy(surf, t, 1, pi)
        assert bid == pytest.approx(surf.spread_bid[s, inventory_row(3, 1), j], abs=1e-12)
        assert ask == pytest.approx(surf.spread_ask[s, inventory_row(3, 1), j], abs=1e-12)

    def test_blocked_sides(self):
        surf = solve(table1_spec(), m_pi=20)
        bid, ask = policy(surf, 0.5, 3, 0.4)
        assert bid == STUB_SPREAD and math.isfinite(ask)
        bid, ask = policy(surf, 0.5, -3, 0.4)
        assert ask == STUB_SPREAD and math.isfinite(bid)

    def test_broadcast_points_match_scalar_calls(self):
        surf = solve(table1_spec(), m_pi=20)
        rng = np.random.default_rng(5)
        times = rng.uniform(0.0, 1.0, 9)[:, None, None]
        levels = np.arange(-3, 4)[:, None]
        beliefs = np.append(rng.uniform(0.0, 1.0, 5), [0.0, 1.0])
        bids, asks = policy(surf, times, levels, beliefs)
        thetas = surf.theta_at(times, levels, beliefs)
        assert bids.shape == asks.shape == thetas.shape == (9, 7, 7)
        for (a, r, j), theta in np.ndenumerate(thetas):
            t, n, pi = float(times[a, 0, 0]), int(levels[r, 0]), float(beliefs[j])
            assert (bids[a, r, j], asks[a, r, j]) == policy(surf, t, n, pi)
            assert theta == surf.theta_at(t, n, pi)

    @pytest.mark.parametrize("n", [-4, 4, 0.5, math.nan])
    def test_inventory_off_the_grid_rejected(self, n):
        surf = solve(table1_spec(), m_pi=20)
        with pytest.raises(ValueError, match=r"inventory .* outside \[-3, 3\]"):
            policy(surf, 0.5, n, 0.4)
        with pytest.raises(ValueError, match=r"inventory .* outside \[-3, 3\]"):
            surf.theta_at(np.array([0.5, 0.5]), np.array([0, n]), 0.4)

    def test_array_of_times_matches_scalar_calls(self):
        surf = solve(table1_spec(), m_pi=20)
        times = np.linspace(0.0, 1.0, 37)
        for n in (-3, 0, 3):
            for pi in (0.0, 0.37, 1.0):
                bids, asks = policy(surf, times, n, pi)
                pairs = np.array([policy(surf, float(t), n, pi) for t in times])
                assert np.array_equal(bids, pairs[:, 0]) and np.array_equal(asks, pairs[:, 1])

    def test_terminal_values_via_policy(self):
        surf = solve(table1_spec(terminal_cost_c=0.01), m_pi=40)
        _, ask = policy(surf, 1.0, 0, 0.37)
        assert ask == pytest.approx(0.05, abs=1e-9)
        surf0 = solve(table1_spec(), m_pi=40)
        bid, ask = policy(surf0, 1.0, 1, 0.37)
        assert bid == pytest.approx(0.04, abs=1e-9)
        assert ask == pytest.approx(0.04, abs=1e-9)


class TestAgainstFullInformation:
    def test_boundary_policies_close_to_regime_policies(self):
        spec = table1_spec()
        surf = solve(spec, m_pi=200)
        full = solve_constrained(spec, n_steps=1000)
        # at pi = 0 the belief is pinned on the high-liquidity regime (i=2),
        # at pi = 1 on the low-liquidity regime (i=1); policies nearly agree
        for n in range(-2, 3):
            _, ask_part0 = policy(surf, 0.0, n, 0.0)
            _, ask_full2 = full_policy(full, 0.0, n, 2)
            assert abs(ask_part0 - ask_full2) < 5e-3
            _, ask_part1 = policy(surf, 0.0, n, 1.0)
            _, ask_full1 = full_policy(full, 0.0, n, 1)
            assert abs(ask_part1 - ask_full1) < 5e-3

    def test_uncertainty_premium_in_doubled_convention(self):
        # a sizeable partial-info mark-up above both regime spreads requires
        # the doubled-gradient convention; the dynamically consistent
        # default cancels most of the premium against the belief-jump gain
        # in the nonlocal term
        spec = table1_spec()
        surf = solve(spec, m_pi=100, belief_gradient_scale=2.0)
        full = solve_constrained(spec, n_steps=500)
        for n in range(-2, 4):
            _, ask_part = policy(surf, 0.0, n, 0.6)
            _, ask_f1 = full_policy(full, 0.0, n, 1)
            _, ask_f2 = full_policy(full, 0.0, n, 2)
            assert ask_part > max(ask_f1, ask_f2)
            excess = ask_part / max(ask_f1, ask_f2) - 1.0
            assert 0.0 < excess <= 0.5

    def test_default_convention_interleaves_regime_spreads(self):
        # with the filter-consistent gradient weight the two belief terms
        # nearly cancel: the partial spread tracks the regime spreads closely
        spec = table1_spec()
        surf = solve(spec, m_pi=100)
        full = solve_constrained(spec, n_steps=500)
        for n in range(-2, 4):
            _, ask_part = policy(surf, 0.0, n, 0.6)
            _, ask_f1 = full_policy(full, 0.0, n, 1)
            _, ask_f2 = full_policy(full, 0.0, n, 2)
            mid = 0.5 * (ask_f1 + ask_f2)
            assert abs(ask_part - mid) < 0.02 * max(abs(mid), 0.01)

    def test_overshoot_near_expiry_exists_in_doubled_convention(self):
        surf = solve(table1_spec(), m_pi=80, belief_gradient_scale=2.0)
        plateau = surf.spread_ask[0]  # t = 0 slice
        peak = surf.spread_ask[:, 1:, :].max(axis=0)
        overshoot = (peak > 0.04 + 1e-5) & (peak > plateau[1:, :] + 1e-5)
        assert np.any(overshoot)


class TestPersistence:
    def test_round_trip(self):
        surf = solve(table1_spec(terminal_cost_c=0.01), m_pi=12, m_t=40)
        text = surface_to_csv(surf)
        back = surface_from_csv(text)
        np.testing.assert_allclose(back.theta, surf.theta, atol=0)
        np.testing.assert_allclose(back.spread_ask, surf.spread_ask, atol=0)
        np.testing.assert_allclose(back.pi_grid, surf.pi_grid, atol=0)
        assert back.cfl_report.n_steps == surf.cfl_report.n_steps
        assert back.belief_gradient_scale == surf.belief_gradient_scale

    def test_headers_present(self):
        surf = solve(table1_spec(), m_pi=8, m_t=20)
        text = surface_to_csv(surf)
        assert "# cfl_max_coeff" in text
        assert text.count("t,n,pi,theta,spread_bid,spread_ask") == 1
