import math

import numpy as np
import pytest
from oracles import one_regime_backward_ode
from scipy.integrate import quad

from regimemm.errors import UnsupportedConfigError
from regimemm.hjb_full import (
    comparison_bounds,
    policy,
    residual_report,
    solve_constrained,
    solve_unconstrained,
    surface_from_csv,
    surface_to_csv,
)
from regimemm.intensity import STUB_SPREAD, IntensityFamily, hamiltonian_value
from regimemm.model import ModelSpec, RegimeSpec, table1_spec, validate, with_params

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

    def test_one_regime_matches_independent_oracle(self):
        spec = one_regime_spec(c=0.01, mu=0.3)
        surf = solve_constrained(spec, n_steps=400)
        oracle = one_regime_backward_ode(spec, 400)
        np.testing.assert_allclose(surf.theta[0][:, 0], oracle, atol=1e-10)

    def test_residual_small_at_midpoints(self):
        surf = solve_constrained(table1_spec(), n_steps=2000)
        assert residual_report(surf) < 1e-6

    def test_rejects_unbounded_inventory(self):
        spec = with_params(
            table1_spec(), inventory_cap_Nstar=math.inf, running_penalty_zeta=0.0
        )
        with pytest.raises(UnsupportedConfigError):
            solve_constrained(spec)

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

    @pytest.mark.parametrize("n, i", [(4, 1), (-4, 2), (0.5, 1), (0, 0), (0, 3)])
    def test_lookup_off_the_grid_rejected(self, n, i):
        surf = solve_constrained(table1_spec(), n_steps=50)
        with pytest.raises(ValueError, match="inventory|regime"):
            surf.theta_at(0.5, n, i)
        with pytest.raises(ValueError, match="inventory|regime"):
            policy(surf, 0.5, n, i)


class TestGridArguments:
    @pytest.mark.parametrize("n_steps", [0, -3, 2.5])
    def test_bad_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            solve_constrained(table1_spec(), n_steps=n_steps)


class TestUnconstrained:
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
            inventory_cap_Nstar=math.inf,
            spread_lo=-10.0,
            spread_hi=10.0,
            regimes=regimes,
            generator_Q=np.asarray(q),
            initial_filter_mu0=np.asarray(mu0),
        )

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5])
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
