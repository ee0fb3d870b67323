"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance and runtime budget is asserted, not just reported.
Criteria 3-5 and 9 exercise the filter-consistent solver/simulator pair;
criterion 8 exercises the doubled belief-gradient convention (see README,
"Two gradient conventions").
"""

import math
import time

import numpy as np
import pytest
from oracles import exact_filter
from scipy import stats

from regimemm import hjb_full, hjb_partial
from regimemm.cli import main as cli_main
from regimemm.filtering import jump_update
from regimemm.hjb_full import comparison_bounds, solve_constrained
from regimemm.intensity import IntensityFamily
from regimemm.model import ModelSpec, RegimeSpec, format_config, table1_spec
from regimemm.simulate import (
    FixedSpreadPolicy,
    PartialInfoPolicy,
    monte_carlo,
)

REPORT: list[str] = []


@pytest.fixture
def report(capsys):
    """Criterion reporter whose lines bypass pytest's output capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
        REPORT.append(line)
        with capsys.disabled():
            print("\n" + line)

    return _report


@pytest.fixture(scope="module")
def table1():
    return table1_spec()


@pytest.fixture(scope="module")
def partial_surface(table1):
    return hjb_partial.solve(table1, m_pi=200)


@pytest.fixture(scope="module")
def full_surface(table1):
    return solve_constrained(table1)


def test_criterion_1_attractor(table1, tmp_path, capsys, report):
    """pi* = 0.572 (beta=1) and 0.636 (beta=2) within 1e-3, under 1 s."""
    cfg = tmp_path / "table1.cfg"
    cfg.write_text(format_config(table1))
    t0 = time.perf_counter()
    values = {}
    for beta in (1, 2):
        assert cli_main(["attractor", str(cfg), "--beta", str(beta)]) == 0
        values[beta] = float(capsys.readouterr().out.split("=")[1])
    elapsed = time.perf_counter() - t0
    err1 = abs(values[1] - 0.572)
    err2 = abs(values[2] - 0.636)
    assert err1 <= 1e-3 and err2 <= 1e-3
    assert elapsed < 1.0
    report(
        1,
        True,
        f"pi*(beta=1)={values[1]:.6f} (|err|={err1:.1e}), "
        f"pi*(beta=2)={values[2]:.6f} (|err|={err2:.1e}), {elapsed:.2f}s < 1s",
    )


def test_criterion_2_terminal_spreads(table1, report):
    """Terminal quotes: 1/b = 0.04 at c=0 (interior n) to 1e-9; 0.05 at n=0 for c=0.01."""
    t0 = time.perf_counter()
    surf_p0 = hjb_partial.solve(table1, m_pi=50)
    surf_f0 = solve_constrained(table1, n_steps=200)
    spec_c = table1_spec(terminal_cost_c=0.01)
    surf_p1 = hjb_partial.solve(spec_c, m_pi=50)
    surf_f1 = solve_constrained(spec_c, n_steps=200)
    T = table1.horizon_T
    worst = 0.0
    for n in (-2, -1, 0, 1, 2):
        for pi in (0.1, 0.5, 0.9):
            b, a = hjb_partial.policy(surf_p0, T, n, pi)
            worst = max(worst, abs(b - 0.04), abs(a - 0.04))
        for i in (1, 2):
            b, a = hjb_full.policy(surf_f0, T, n, i)
            worst = max(worst, abs(b - 0.04), abs(a - 0.04))
    worst_c = 0.0
    for pi in (0.25, 0.75):
        worst_c = max(worst_c, abs(hjb_partial.policy(surf_p1, T, 0, pi)[1] - 0.05))
    for i in (1, 2):
        worst_c = max(worst_c, abs(hjb_full.policy(surf_f1, T, 0, i)[1] - 0.05))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9 and worst_c <= 1e-9
    report(
        2,
        True,
        f"|spread(T) - 0.04| <= {worst:.1e} (c=0), |ask(T,0) - 0.05| <= {worst_c:.1e} "
        f"(c=0.01), {elapsed:.1f}s",
    )


def test_criterion_3_value_function_monte_carlo(table1, partial_surface, report):
    """Mean penalized P&L of the solved policy within 3 SE of theta(0,0,0.5)."""
    t0 = time.perf_counter()
    policy = PartialInfoPolicy(partial_surface)
    summary = monte_carlo(table1, policy, n_paths=10_000, seed=2024)
    theta0 = partial_surface.theta_at(0.0, 0, 0.5)
    elapsed = time.perf_counter() - t0
    gap = abs(summary.mean_pnl - theta0)
    assert gap < 3.0 * summary.stderr
    assert elapsed < 60.0
    report(
        3,
        True,
        f"mean={summary.mean_pnl:.5f}, theta(0,0,0.5)={theta0:.5f}, "
        f"|diff|={gap:.5f} < 3SE={3 * summary.stderr:.5f}, {elapsed:.0f}s < 60s",
    )


def test_criterion_4_policy_optimality(table1, partial_surface, report):
    """Constant 0.04 quotes earn no more than the solved policy + 3 joint SE."""
    t0 = time.perf_counter()
    opt = monte_carlo(table1, PartialInfoPolicy(partial_surface), n_paths=10_000, seed=77)
    fixed = monte_carlo(table1, FixedSpreadPolicy(0.04, 0.04), n_paths=10_000, seed=77)
    diffs = fixed.pnls - opt.pnls  # paired seeds: per-path streams coincide
    joint_se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
    elapsed = time.perf_counter() - t0
    assert fixed.mean_pnl <= opt.mean_pnl + 3.0 * joint_se
    assert elapsed < 90.0
    report(
        4,
        True,
        f"fixed={fixed.mean_pnl:.5f} <= solved={opt.mean_pnl:.5f} + 3*jointSE="
        f"{3 * joint_se:.5f}, {elapsed:.0f}s < 90s",
    )


def test_criterion_5_filter_oracle(table1, report):
    """The engine's recorded beliefs against the exact filter (sup < 1e-7)
    and the exact jump update."""
    t0 = time.perf_counter()
    db, da = 0.05, 0.08
    summary = monte_carlo(table1, FixedSpreadPolicy(db, da), 20, 5, export_paths=20)
    sup_err = max(
        float(np.max(np.abs(rec.probs - exact_filter(table1, db, da, rec))))
        for rec in summary.records
    )
    n_fills = sum(len(rec.fills) for rec in summary.records)

    jumped = jump_update(np.array([0.5, 0.5]), "bid", 0.04, table1)
    jump_err = abs(jumped[0] - 1.0 / 6.0)
    elapsed = time.perf_counter() - t0
    assert sup_err < 1e-7
    assert jump_err <= 1e-12
    assert elapsed < 5.0
    report(
        5,
        True,
        f"sup|engine - exact filter|={sup_err:.2e} < 1e-7 over {n_fills} fills, "
        f"|jump(0.5) - 1/6|={jump_err:.1e} <= 1e-12, {elapsed:.1f}s < 5s",
    )


def test_criterion_6_full_info_invariants(table1, full_surface, report):
    """Spread symmetry about 1/b to 1e-8; comparison sandwich at every node."""
    t0 = time.perf_counter()
    surf = full_surface
    n_star = int(table1.inventory_cap_Nstar)
    worst_sym = 0.0
    for n in range(1, n_star + 1):
        lhs = 1.0 / 25.0 - surf.spread_ask[:, n + n_star, :]
        rhs = surf.spread_ask[:, (1 - n) + n_star, :] - 1.0 / 25.0
        worst_sym = max(worst_sym, float(np.max(np.abs(lhs - rhs))))
    k_up, k_low = comparison_bounds(table1)
    T = table1.horizon_T
    upper_ok = bool(np.all(surf.theta <= k_up * T + 1e-12))
    lower_ok = bool(np.all(surf.theta >= -k_up * T - k_low - 1e-12))
    elapsed = time.perf_counter() - t0
    assert worst_sym <= 1e-8
    assert upper_ok and lower_ok
    assert elapsed < 5.0
    report(
        6,
        True,
        f"symmetry defect {worst_sym:.1e} <= 1e-8; sandwich [-{k_up * T + k_low:.4f}, "
        f"{k_up * T:.4f}] holds at all {surf.theta.size} nodes, {elapsed:.1f}s < 5s",
    )


def test_criterion_7_scheme_convergence(table1, report):
    """Ladder sup-differences decrease; 1000 random single-step monotonicity checks."""
    t0 = time.perf_counter()
    ladder = hjb_partial.convergence_report(table1, ladder=(50, 100, 200))
    decreasing = all(
        a > b for a, b in zip(ladder.sup_differences, ladder.sup_differences[1:])
    )
    assert decreasing

    stepper = hjb_partial.Stepper(table1_spec(terminal_cost_c=0.01), m_pi=40)
    rng = np.random.default_rng(20240)
    theta = stepper.terminal_panel()
    for _ in range(20):
        _, rhs, coeff = stepper.evaluate(theta)
        theta = theta + (0.9 / coeff) * rhs
    _, rhs, coeff = stepper.evaluate(theta)
    dt = 0.9 / coeff
    base_new = theta + dt * rhs
    eps = 1e-6
    worst_drop = 0.0
    for _ in range(1000):
        r = rng.integers(0, theta.shape[0])
        j = rng.integers(0, theta.shape[1])
        pert = theta.copy()
        pert[r, j] += eps
        _, rhs_p, _ = stepper.evaluate(pert)
        pert_new = pert + dt * rhs_p
        worst_drop = min(worst_drop, float(np.min(pert_new - base_new)))
    elapsed = time.perf_counter() - t0
    assert worst_drop >= -1e-12
    assert elapsed < 60.0
    report(
        7,
        True,
        f"sup-diffs {tuple(round(d, 5) for d in ladder.sup_differences)} decreasing; "
        f"monotone steps: worst response {worst_drop:.1e} >= -1e-12 over 1000 "
        f"perturbations, {elapsed:.0f}s < 60s",
    )


def test_criterion_8_uncertainty_premium_band(table1, full_surface, report):
    """Partial-info ask exceeds both regime spreads with excess in (0%, 50%].

    This property holds under the doubled belief-gradient convention
    (belief_gradient_scale=2), not under the filter-consistent default
    (where the premium cancels against the belief-jump gain).  See the
    README, "Two gradient conventions".
    """
    t0 = time.perf_counter()
    surf2 = hjb_partial.solve(table1, m_pi=200, belief_gradient_scale=2.0)
    n_star = int(table1.inventory_cap_Nstar)
    excesses = []
    for n in range(-n_star + 1, n_star + 1):
        ask_part = hjb_partial.policy(surf2, 0.0, n, 0.6)[1]
        ask_full = [hjb_full.policy(full_surface, 0.0, n, i)[1] for i in (1, 2)]
        assert ask_part > max(ask_full)
        excess = ask_part / max(ask_full) - 1.0
        assert 0.0 < excess <= 0.5
        excesses.append(excess)
    elapsed = time.perf_counter() - t0
    report(
        8,
        True,
        f"doubled-gradient convention (scale=2): excess over full info in "
        f"[{100 * min(excesses):.1f}%, {100 * max(excesses):.1f}%] within (0%, 50%] "
        f"for every quoting inventory at pi=0.6, t=0; {elapsed:.1f}s",
    )


def test_criterion_9_thinning_chi_square(report):
    """Constant-intensity reduction passes chi-square vs Poisson at 1%."""
    t0 = time.perf_counter()
    lam_single = IntensityFamily.exponential(2.0, 25.0)
    spec = ModelSpec(
        horizon_T=1.0,
        drift_mu=0.0,
        vol_sigma=0.1,
        risk_aversion_gamma=0.0,
        running_penalty_zeta=0.0,
        terminal_cost_c=0.0,
        inventory_cap_Nstar=50,
        spread_lo=-10.0,
        spread_hi=10.0,
        regimes=(RegimeSpec("only", lam_single, lam_single),),
        generator_Q=np.zeros((1, 1)),
        initial_filter_mu0=np.array([1.0]),
        initial_price_s0=100.0,
    )
    summary = monte_carlo(
        spec, FixedSpreadPolicy(0.04, 0.04), n_paths=10_000, seed=99, report_points=10
    )
    totals = summary.fills_bid_paths + summary.fills_ask_paths
    lam = 2.0 * 2.0 * math.exp(-1.0)
    kmax = int(totals.max())
    observed = np.bincount(totals, minlength=kmax + 1).astype(float)
    probs = np.array([stats.poisson.pmf(k, lam) for k in range(kmax + 1)])
    probs[-1] = 1.0 - probs[:-1].sum()
    expected = probs * len(totals)
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    chi2, pval = stats.chisquare(observed, expected)
    elapsed = time.perf_counter() - t0
    assert pval > 0.01
    assert elapsed < 10.0
    report(
        9,
        True,
        f"chi-square p={pval:.3f} > 0.01 vs Poisson({lam:.3f}) on 1e4 paths, "
        f"{elapsed:.0f}s < 10s",
    )


def test_zz_print_summary(capsys):
    with capsys.disabled():
        print("\n" + "=" * 72)
        for line in REPORT:
            print(line)
        print("=" * 72)
    assert len(REPORT) == 9
