import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    convergence_sup_loop,
    evaluate_loop,
    exponential_closed_form,
    solve_all_levels,
    solve_full_panel,
)

from regimemm.errors import UnsupportedConfigError
from regimemm.grid import inventory_row, time_bracket
from regimemm.hjb_full import comparison_bounds, solve_constrained
from regimemm.hjb_full import policy as full_policy
from regimemm.hjb_partial import (
    Stepper,
    convergence_report,
    output_levels,
    output_times,
    policy,
    solve,
    surface_from_csv,
    surface_to_csv,
)
from regimemm.intensity import STUB_SPREAD, IntensityFamily
from regimemm.model import RegimeSpec, format_config, load_config, table1_spec, two_regime_reduction, with_params
from regimemm.simulate import PartialInfoPolicy, monte_carlo

ROOT = Path(__file__).resolve().parent.parent


# table1 with regime 2 absorbing, regime 1 absorbing, and both
ABSORBING = {
    name: with_params(table1_spec(), generator_Q=np.array(q))
    for name, q in (
        ("regime2", [[-5.0, 5.0], [0.0, 0.0]]),
        ("regime1", [[0.0, 0.0], [5.0, -5.0]]),
        ("both", [[0.0, 0.0], [0.0, 0.0]]),
    )
}


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

    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            solve(with_params(table1_spec(), risk_aversion_gamma=0.3))

    def test_doubled_gradient_variant_differs(self):
        s1 = solve(table1_spec(), m_pi=40)
        s2 = solve(table1_spec(), m_pi=40, belief_gradient_scale=2.0)
        assert s2.belief_gradient_scale == 2.0
        mid = abs(s1.theta_at(0.0, 0, 0.5) - s2.theta_at(0.0, 0, 0.5))
        assert mid > 1e-4


STORAGE_MARKETS = {
    "table1": table1_spec(),
    "table1_terminal_cost": table1_spec(terminal_cost_c=0.01),
    "drift0.05": table1_spec(drift_mu=0.05),
}


def lookup_gap(a, b):
    """The largest differences of theta, the bid and the ask between two
    surfaces over 20 000 random lookups (t, n, pi) on table1's domain, as
    an array of three."""
    rng = np.random.default_rng(7)
    points = (rng.uniform(0.0, 1.0, 20_000), rng.integers(-3, 4, 20_000), rng.uniform(0.0, 1.0, 20_000))
    gaps = [np.max(np.abs(a.theta_at(*points) - b.theta_at(*points)))]
    for x, y in zip(policy(a, *points), policy(b, *points)):
        quoted = np.isfinite(x)  # blocked sides hold the stub in both
        gaps.append(np.max(np.abs(x[quoted] - y[quoted])))
    return np.array(gaps)


class TestOutputGrid:
    """The stored levels against a march that keeps every level."""

    @pytest.fixture(scope="class", params=[0.0, 0.01], ids=["c0", "c0.01"])
    def pair(self, request):
        spec = table1_spec(terminal_cost_c=request.param)
        return solve(spec, m_pi=40), solve_all_levels(spec, 40)

    def test_stores_the_graded_grid(self, pair):
        surf, ref = pair
        np.testing.assert_array_equal(surf.time_grid, output_times(1.0, 40))
        assert surf.cfl_report == ref.cfl_report

    @pytest.mark.parametrize("T", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("m_pi", [1, 10, 40, 200, 800])
    def test_graded_grid_invariants(self, T, m_pi):
        # ends exactly at 0 and T, strictly increasing, finer toward T
        grid = output_times(T, m_pi)
        assert len(grid) == output_levels(m_pi) == 1 + math.ceil(9 * math.sqrt(m_pi))
        assert grid[0] == 0.0 and grid[-1] == T
        steps = np.diff(grid)
        assert np.all(steps > 0.0)
        assert np.all(np.diff(steps) <= 0.0)
        u = 1.0 - np.arange(len(grid)) / (len(grid) - 1)
        np.testing.assert_allclose(grid, T * (1.0 - u**1.75), rtol=0, atol=4e-16 * T)

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
        gap, err = lookup_gap(ref, fine).max(), lookup_gap(surf, ref).max()
        assert gap > 5e-6
        assert err < 0.5 * gap, (err, gap)

    @pytest.mark.parametrize("m_pi", [25, 50])
    @pytest.mark.parametrize("market", STORAGE_MARKETS)
    def test_storage_error_within_the_rule_bound(self, market, m_pi):
        # what storing the graded grid loses, against a march that keeps every
        # level: theta and each spread as a fraction of its own gap to the
        # 2 m_pi solution
        spec = STORAGE_MARKETS[market]
        surf, ref = solve(spec, m_pi=m_pi), solve_all_levels(spec, m_pi)
        gap, err = lookup_gap(ref, solve_all_levels(spec, 2 * m_pi)), lookup_gap(surf, ref)
        assert np.all(err <= 0.31 * gap), (err, gap)

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
        [
            np.linspace(0.0, 1.0, 284), np.linspace(0.0, 2.5, 2001), np.linspace(0.0, 1.0, 60) ** 2,
            output_times(1.0, 200),
        ],
        ids=["uniform-284", "uniform-2001", "squares", "graded-129"],
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


class TestHalfPanelMarch:
    """A driftless market marches rows 0..N* and mirrors the rest: its
    surface must be the full-panel march's, bit for bit."""

    CASES = {
        "table1": (table1_spec(), 30, 1.0),
        "table1-c": (table1_spec(terminal_cost_c=0.01), 30, 1.0),
        "cap1": (with_params(table1_spec(), inventory_cap_Nstar=1), 30, 1.0),
        "cap2": (with_params(table1_spec(), inventory_cap_Nstar=2), 30, 1.0),
        "cap5": (with_params(table1_spec(terminal_cost_c=0.01), inventory_cap_Nstar=5), 30, 1.0),
        "scale2": (table1_spec(), 30, 2.0),
        "mpi200": (table1_spec(), 200, 1.0),
        "mpi200-c": (table1_spec(terminal_cost_c=0.01), 200, 1.0),
        "negative-zero-drift": (table1_spec(drift_mu=-0.0), 30, 1.0),
        "drift": (table1_spec(drift_mu=0.3), 30, 1.0),
        "absorbing": (ABSORBING["regime1"], 30, 1.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_full_panel_march(self, case, monkeypatch):
        spec, m_pi, scale = self.CASES[case]
        ref = solve_full_panel(spec, m_pi, belief_gradient_scale=scale)
        rows, evaluate = set(), Stepper.evaluate

        def counting(stepper, theta):
            rows.add(len(theta))
            return evaluate(stepper, theta)

        monkeypatch.setattr(Stepper, "evaluate", counting)
        surf = solve(spec, m_pi, belief_gradient_scale=scale)
        n_star = int(spec.inventory_cap_Nstar)
        # n = 0..N*, or every row of a drifting market
        assert rows == {2 * n_star + 1 if spec.drift_mu else n_star + 1}
        for name in ("time_grid", "pi_grid", "theta", "spread_bid", "spread_ask"):
            assert getattr(surf, name).tobytes() == getattr(ref, name).tobytes(), name
        # every step is the full panel's
        assert surf.cfl_report == ref.cfl_report
        assert surf.belief_gradient_scale == ref.belief_gradient_scale == scale

    def test_drifting_market_cannot_be_mirrored(self):
        with pytest.raises(ValueError, match="no drift"):
            Stepper(self.CASES["drift"][0], 10, _mirror=True)

    def test_drifting_market_is_not_a_mirror_image(self):
        # so the full panel it marches is needed: a mirrored march would
        # store theta(-n) = theta(n)
        surf = solve(self.CASES["drift"][0], 30)
        assert not np.array_equal(surf.theta, surf.theta[:, ::-1])
        assert not np.array_equal(surf.spread_bid[:, :-1], surf.spread_ask[:, :0:-1])


class TestConvexInBelief:
    """theta(t, n, .) is a supremum of policies' values that are linear in
    the prior, so it is convex in pi at gamma = 0: every second difference
    along pi of the stored theta is at least -4 eps max|theta| (rounding)."""

    @pytest.mark.parametrize("m_pi", [50, 100, 200, 400])
    @pytest.mark.parametrize("config", ["table1.cfg", "table1_terminal_cost.cfg", "table1_absorbing.cfg"])
    def test_second_differences_nonnegative(self, config, m_pi):
        theta = solve(load_config(ROOT / "configs" / config), m_pi).theta
        second = theta[..., 2:] - 2.0 * theta[..., 1:-1] + theta[..., :-2]
        assert second.min() >= -4.0 * np.finfo(float).eps * np.abs(theta).max()


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
    @pytest.mark.parametrize(
        "spec",
        [table1_spec(terminal_cost_c=0.01), load_config(ROOT / "configs" / "table1_absorbing.cfg")],
        ids=["table1-c", "absorbing"],
    )
    def test_random_single_step_perturbations(self, spec):
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
            solve(table1_spec(), m_pi=10, belief_gradient_scale=-1.0)


class TestGridArguments:
    @pytest.mark.parametrize("m_pi", [0, -2, 2.5, True])
    def test_bad_belief_cells_rejected(self, m_pi):
        with pytest.raises(ValueError, match="m_pi"):
            Stepper(table1_spec(), m_pi=m_pi)
        with pytest.raises(ValueError, match="m_pi"):
            solve(table1_spec(), m_pi=m_pi)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_empty_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon_T"):
            solve(with_params(table1_spec(), horizon_T=horizon), m_pi=10)


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


def assert_first_order(errors, ladder, C):
    """``errors`` at the belief cells ``ladder``, each twice the last, are at
    most C / m_pi and fall at least 1.8-fold per doubling."""
    errors = np.array(errors)
    assert np.all(errors <= C / ladder)
    assert np.all(errors[:-1] >= 1.8 * errors[1:])


class TestAbsorbingRegime:
    """With regime j absorbing, certainty in j is an absorbing belief: the
    transport q_hat, the order-flow weight w and a fill's move of the belief
    all vanish there.  So theta_partial(t, n, pi_j) solves regime j's
    uncoupled full-information equation, which ``solve_constrained`` solves
    on its own, sharing only ``intensity`` with the partial scheme.  The
    first-order scheme's sup error over the stored times and inventories is
    at most C / m_pi and halves with each refinement."""

    # market, belief column, the regime certain there, C
    CASES = {
        "regime2-at-pi0": ("regime2", 0, 2, 3.5e-3),
        "regime1-at-pi1": ("regime1", -1, 1, 8e-4),
        "both-at-pi1": ("both", -1, 1, 3e-3),
        "both-at-pi0": ("both", 0, 2, 1.2e-2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_certain_belief_solves_the_regime_equation(self, case):
        market, column, regime, C = self.CASES[case]
        spec = ABSORBING[market]
        full = solve_constrained(spec, 2000)
        ladder = np.array([50, 100, 200])
        errors = []
        for m_pi in ladder:
            surf = solve(spec, m_pi)
            exact = full.theta_at(surf.time_grid[:, None], spec.inventory_levels(), regime)
            errors.append(np.max(np.abs(surf.theta[:, :, column] - exact)))
        assert_first_order(errors, ladder, C)

    def test_monte_carlo_mean_within_3_se(self):
        # criterion 3's check on the shipped absorbing market
        spec = load_config(ROOT / "configs" / "table1_absorbing.cfg")
        assert format_config(spec) == format_config(ABSORBING["regime1"])
        surf = solve(spec, m_pi=200)
        summary = monte_carlo(spec, PartialInfoPolicy(surf), n_paths=10_000, seed=1)
        gap = abs(summary.mean_pnl - surf.theta_at(0.0, 0, 0.5))
        assert gap < 3.0 * summary.stderr
        assert summary.clamps == 0


EPS = np.finfo(float).eps


class TestInformationOrdering:
    """A market maker who sees the regime can do whatever one who filters
    can (Blackwell, 1953): theta_partial <= pi theta_full(., 1) + (1 - pi)
    theta_full(., 2) at every node.  The stored partial surface breaks it
    only by its first-order error, at most C / m_pi and halving with each
    refinement.  Under the doubled gradient convention the violation does
    not shrink, so only the default convention is checked."""

    @staticmethod
    def scaled(k):
        """table1 with both regimes' order amplitudes scaled by k, Q fixed."""
        lam1, lam2 = (IntensityFamily.exponential(k * a, 25.0) for a in (2.0, 10.0))
        return with_params(table1_spec(), regimes=(RegimeSpec("1", lam1, lam1), RegimeSpec("2", lam2, lam2)))

    # market, C
    CASES = {
        "amplitudes-x0.25": (scaled(0.25), 1.4e-3),
        "table1": (table1_spec(), 5e-3),
        "amplitudes-x4": (scaled(4.0), 1.5e-2),
        "table1_terminal_cost": (table1_spec(terminal_cost_c=0.01), 1.1e-2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_below_the_regime_mixture(self, case):
        spec, C = self.CASES[case]
        full = solve_constrained(spec)
        ladder = np.array([100, 200, 400])
        violations = []
        for m_pi in ladder:
            surf = solve(spec, m_pi)
            t, n, pi = surf.time_grid[:, None, None], spec.inventory_levels()[:, None], surf.pi_grid
            mixture = pi * full.theta_at(t, n, 1) + (1.0 - pi) * full.theta_at(t, n, 2)
            violations.append(np.max(surf.theta - mixture))
        assert_first_order(violations, ladder, C)


class TestParameterOrdering:
    """Orderings that follow from a pointwise lower reward or a smaller set
    of admissible quotes: theta does not rise with the terminal cost c or
    the running penalty zeta, does not fall on the common rows when the cap
    N* grows or the spread bounds widen, and the full solver's certainty
    equivalent does not rise with gamma.  Node by node on a common grid they
    hold to rounding (4 eps max|theta|), except the partial solver's cap
    and bounds moves: those markets' marches take different CFL steps, so
    their stored levels interpolate different march levels, and the
    ordering holds to the scheme's first-order error, C / m_pi."""

    SOLVERS = {
        "partial": lambda spec: solve(spec, 100).theta,
        "full": lambda spec: solve_constrained(spec, 400).theta,
    }
    MARKETS = {"table1": table1_spec(), "table1_terminal_cost": table1_spec(terminal_cost_c=0.01)}
    # each move maps a market to (the market with the lower theta, the one with the higher)
    MOVES = {
        "c": lambda spec: (with_params(spec, terminal_cost_c=spec.terminal_cost_c + 0.01), spec),
        "zeta": lambda spec: (with_params(spec, running_penalty_zeta=0.2), spec),
        "cap": lambda spec: (spec, with_params(spec, inventory_cap_Nstar=4)),
        "bounds": lambda spec: (with_params(spec, spread_lo=0.03, spread_hi=0.2), spec),
    }

    @staticmethod
    def fall(low, high):
        """The largest amount by which ``low`` exceeds ``high`` on the common rows."""
        if high.shape[1] > low.shape[1]:  # the larger cap's common rows
            high = high[:, 1:-1]
        return np.max(low - high)

    @pytest.mark.parametrize(
        "solver, move",
        [("full", "c"), ("full", "zeta"), ("full", "cap"), ("full", "bounds"), ("partial", "c"), ("partial", "zeta")],
    )
    @pytest.mark.parametrize("market", MARKETS)
    def test_theta_ordered(self, market, solver, move):
        low, high = (self.SOLVERS[solver](spec) for spec in self.MOVES[move](self.MARKETS[market]))
        assert self.fall(low, high) <= 4.0 * EPS * np.abs(high).max()

    @pytest.mark.parametrize("move, C", [("cap", 2.5e-4), ("bounds", 2.5e-5)])
    @pytest.mark.parametrize("market", MARKETS)
    def test_partial_theta_ordered_within_the_scheme_error(self, market, move, C):
        specs = self.MOVES[move](self.MARKETS[market])
        for m_pi in (50, 100, 200):
            assert self.fall(*(solve(spec, m_pi).theta for spec in specs)) <= C / m_pi

    @pytest.mark.parametrize("market", MARKETS)
    def test_full_theta_falls_with_risk_aversion(self, market):
        spec = self.MARKETS[market]
        thetas = [self.SOLVERS["full"](with_params(spec, risk_aversion_gamma=g)) for g in (0.0, 0.5, 2.0)]
        for high, low in zip(thetas, thetas[1:]):
            assert self.fall(low, high) <= 4.0 * EPS * np.abs(high).max()


class TestPersistence:
    def test_round_trip(self):
        surf = solve(table1_spec(terminal_cost_c=0.01), m_pi=12)
        text = surface_to_csv(surf)
        back = surface_from_csv(text)
        np.testing.assert_allclose(back.theta, surf.theta, atol=0)
        np.testing.assert_allclose(back.spread_ask, surf.spread_ask, atol=0)
        np.testing.assert_allclose(back.pi_grid, surf.pi_grid, atol=0)
        assert back.cfl_report.n_steps == surf.cfl_report.n_steps
        assert back.belief_gradient_scale == surf.belief_gradient_scale

    def test_headers_present(self):
        surf = solve(table1_spec(), m_pi=8)
        text = surface_to_csv(surf)
        assert "# cfl_max_coeff" in text
        assert text.count("t,n,pi,theta,spread_bid,spread_ask") == 1
