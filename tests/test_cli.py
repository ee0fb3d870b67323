import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from regimemm import hjb_full, simulate
from regimemm.cli import main
from regimemm.intensity import IntensityFamily
from regimemm.model import RegimeSpec, format_config, table1_spec, with_params


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "table1.cfg"
    path.write_text(format_config(table1_spec()))
    return str(path)


def write_config(tmp_path, spec, name="spec.cfg"):
    path = tmp_path / name
    path.write_text(format_config(spec))
    return str(path)


def run_files(out_dir, command):
    runs = list((Path(out_dir) / command).iterdir())
    assert len(runs) >= 1
    return runs[-1]


class TestAttractor:
    def test_beta_one(self, config_path, capsys):
        assert main(["attractor", config_path, "--beta", "1"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1])
        assert value == pytest.approx(0.572, abs=1e-3)

    def test_beta_two(self, config_path, capsys):
        assert main(["attractor", config_path, "--beta", "2"]) == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(0.636, abs=1e-3)

    def test_symmetric_rates(self, tmp_path, capsys):
        base = table1_spec()
        spec = with_params(base, regimes=(base.regimes[0], base.regimes[0]))
        cfg = write_config(tmp_path, spec)
        assert main(["attractor", cfg, "--beta", "1"]) == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_terminal_cost_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, table1_spec(terminal_cost_c=0.01))
        assert main(["attractor", cfg, "--beta", "1"]) == 3


class TestSolveFull:
    def test_row_count_and_manifest(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["solve-full", config_path, "--out", out, "--steps", "40"]) == 0
        run_dir = run_files(out, "solve-full")
        surface = (run_dir / "surface_full.csv").read_text()
        body = [
            l for l in surface.splitlines() if l and not l.startswith("#") and not l.startswith("t,")
        ]
        assert len(body) == 41 * 7 * 2
        manifest = (run_dir / "manifest.txt").read_text()
        match = re.search(r"manifest_hash = (\w+)", manifest)
        assert match and f"# manifest = {match.group(1)}" in surface

    def test_step_search_reported_and_hashed(self, config_path, tmp_path, capsys):
        # table1's search stops at 400 steps: the same count given with
        # --steps still makes another run, whose surface has no march_* report
        out = tmp_path / "out"
        assert main(["solve-full", config_path, "--out", str(out)]) == 0
        assert main(["solve-full", config_path, "--out", str(out), "--steps", "400"]) == 0
        report, auto, fixed = capsys.readouterr().out.splitlines()
        assert report.startswith("steps = 400, theta error estimate ")
        auto, fixed = Path(auto), Path(fixed)
        assert auto.parent == fixed.parent and auto != fixed
        manifest = (auto / "manifest.txt").read_text()
        assert "\nfull_steps = 400\nsteps = auto\n" in manifest
        assert "\nsteps = 400\n" in (fixed / "manifest.txt").read_text()
        surface = (auto / "surface_full.csv").read_text()
        assert "# march_n_steps = 400\n# march_theta_error = " in surface
        assert "march_" not in (fixed / "surface_full.csv").read_text()
        body = [l for l in surface.splitlines() if l and not l.startswith(("#", "t,"))]
        assert len(body) == 401 * 7 * 2

    def test_missing_config(self, tmp_path):
        assert main(["solve-full", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_invalid_config(self, tmp_path, capsys):
        spec = with_params(
            table1_spec(), inventory_cap_Nstar=math.inf, risk_aversion_gamma=0.5,
            running_penalty_zeta=0.0, terminal_cost_c=0.0,
        )
        cfg = write_config(tmp_path, spec)
        assert main(["solve-full", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unbounded inventory requires" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("horizon_T = banana\n")
        assert main(["solve-full", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "horizon_T" in capsys.readouterr().err


NON_FINITE = [
    (key, value)
    for key in (
        "horizon_T", "drift_mu", "vol_sigma", "risk_aversion_gamma", "running_penalty_zeta",
        "terminal_cost_c", "initial_cash_x0", "initial_price_s0",
    )
    for value in ("nan", "inf")
] + [
    ("generator_Q", "-5 nan ; 5 -5"),
    ("generator_Q", "-inf inf ; 5 -5"),
    ("initial_filter_mu0", "nan 0.5"),
    ("initial_filter_mu0", "inf 0.5"),
    ("regime.1.bid_intensity", "exponential nan 25"),
    ("regime.1.bid_intensity", "exponential inf 25"),
    ("inventory_cap_Nstar", "nan"),
    ("inventory_cap_Nstar", "-inf"),
    ("spread_lo", "nan"),
    ("spread_hi", "nan"),
]


class TestNonFiniteNumbers:
    """Every number but an unbounded cap and infinite spread bounds
    (``test_model.py::TestConfigFormat::test_unbounded_markers``) must be
    finite: a NaN or infinity is a config error (exit 2) naming its key,
    never a traceback or an all-NaN surface."""

    @pytest.mark.parametrize("command", ["solve-full", "solve-partial"])
    @pytest.mark.parametrize("key, value", NON_FINITE, ids=[f"{k}={v}" for k, v in NON_FINITE])
    def test_rejected_with_exit_2(self, tmp_path, capsys, command, key, value):
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", format_config(table1_spec()))
        assert f"{key} = {value}" in text
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        named = "regime 1 (low-liquidity) bid intensity" if key.startswith("regime.") else key
        assert f"invalid config: {named}" in err
        assert ";" not in err  # one message, for the one bad key
        assert not (tmp_path / "o").exists()


class TestFlatCurves:
    """A curve that does not fall across the spread range (here b = 0) has
    no optimal spread: every command exits 2 naming it and writes nothing,
    never a NaN surface or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-full", "--steps", "50"],
            ["solve-partial"],
            ["compare"],
            ["simulate", "--policy", "partial", "--paths", "2"],
            ["simulate", "--policy", "full", "--paths", "2"],
            ["simulate", "--policy", "fixed:0.04", "--paths", "2"],
            ["attractor", "--beta", "1"],
        ],
        ids=[
            "solve-full", "solve-partial", "compare", "simulate-partial", "simulate-full",
            "simulate-fixed", "attractor",
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv):
        base = table1_spec()
        flat = [IntensityFamily.exponential(a, 0.0) for a in (2.0, 10.0)]
        regimes = tuple(RegimeSpec(r.label, f, f) for r, f in zip(base.regimes, flat))
        cfg = write_config(tmp_path, with_params(base, regimes=regimes))
        out = ["--out", str(tmp_path / "o")] if argv[0] != "attractor" else []
        assert main([argv[0], cfg] + argv[1:] + out) == 2
        captured = capsys.readouterr()
        for r, side in ((1, "bid"), (1, "ask"), (2, "bid"), (2, "ask")):
            label = base.regimes[r - 1].label
            assert f"regime {r} ({label}) {side} intensity: intensity must fall" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()


class TestSolvePartial:
    def test_writes_surface_with_cfl(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["solve-partial", config_path, "--out", out, "--mpi", "20"]) == 0
        run_dir = run_files(out, "solve-partial")
        text = (run_dir / "surface_partial.csv").read_text()
        assert "# cfl_max_coeff" in text
        assert "cfl_max_coeff" in capsys.readouterr().out

    def test_three_regimes_exit_2(self, tmp_path, capsys):
        base = table1_spec()
        spec = with_params(
            base,
            regimes=base.regimes + (base.regimes[1],),
            generator_Q=np.array([[-2.0, 1, 1], [1, -2.0, 1], [1, 1, -2.0]]),
            initial_filter_mu0=np.array([0.4, 0.3, 0.3]),
        )
        cfg = write_config(tmp_path, spec)
        assert main(["solve-partial", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "k = 2" in capsys.readouterr().err

    def test_byte_identical_rerun_except_wall_clock(self, config_path, tmp_path):
        # every output file repeats byte for byte; the manifest differs at
        # most in its wall-clock line
        commands = [
            ["solve-full", config_path, "--steps", "40"],
            ["solve-partial", config_path, "--mpi", "12"],
            ["compare", config_path, "--mpi", "12"],
            ["simulate", config_path, "--policy", "partial", "--mpi", "12", "--paths", "6"],
            ["simulate", config_path, "--policy", "full", "--paths", "3"],
        ]
        for argv in commands:
            dirs = []
            for rerun in ("a", "b"):
                out = tmp_path / rerun / argv[0] / argv[2]
                assert main(argv + ["--out", str(out)]) == 0
                dirs.append(run_files(out, argv[0]))
            names = sorted(p.name for p in dirs[0].iterdir())
            assert names == sorted(p.name for p in dirs[1].iterdir())
            assert dirs[0].name == dirs[1].name  # same manifest hash
            for name in names:
                first, second = ((d / name).read_bytes() for d in dirs)
                if name == "manifest.txt":
                    first, second = (
                        b"".join(l for l in text.splitlines(True) if not l.startswith(b"wall_clock_seconds"))
                        for text in (first, second)
                    )
                assert first == second, f"{argv[0]} {argv[2]}: {name} differs on rerun"


class TestSimulate:
    def test_fixed_policy_summary_and_paths(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            [
                "simulate", config_path, "--out", out,
                "--policy", "fixed:0.04", "--paths", "6", "--seed", "9",
            ]
        )
        assert code == 0
        run_dir = run_files(out, "simulate")
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == [
            "manifest.txt", "path_000.csv", "path_001.csv", "path_002.csv",
            "path_003.csv", "summary.txt",
        ]
        summary = (run_dir / "summary.txt").read_text()
        assert "mean_pnl = " in summary
        path0 = (run_dir / "path_000.csv").read_text()
        assert path0.splitlines()[1] == "t,S,N,X,pi1,spread_bid,spread_ask,event_side"

    def test_export_paths_capped_by_paths(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert (
            main(
                ["simulate", config_path, "--out", out, "--policy", "fixed:0.05", "--paths", "2"]
            )
            == 0
        )
        run_dir = run_files(out, "simulate")
        assert not (run_dir / "path_002.csv").exists()

    def test_partial_policy_runs(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            [
                "simulate", config_path, "--out", out,
                "--policy", "partial", "--paths", "5", "--mpi", "30", "--seed", "1",
            ]
        )
        assert code == 0

    def test_unknown_policy(self, config_path, tmp_path, capsys):
        # argparse rejects each before any work: fixed:inf would quote nothing
        for policy in ("zigzag", "fixed:", "fixed:abc", "fixed:nan", "fixed:-inf", "fixed:inf"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", config_path, "--out", str(tmp_path / "o"), "--policy", policy])
            assert exc.value.code == 2, policy
            assert "error:" in capsys.readouterr().err, policy
            assert not (tmp_path / "o").exists(), policy

    def test_unsupported_surface_exit_2(self, tmp_path, capsys):
        # partial surface cannot exist for a risk-averse model
        spec = with_params(table1_spec(), risk_aversion_gamma=0.4)
        cfg = write_config(tmp_path, spec)
        code = main(
            ["simulate", cfg, "--out", str(tmp_path / "o"), "--policy", "partial", "--paths", "2"]
        )
        assert code == 2
        assert "gamma = 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--policy", "fixed:0.04", "--paths", "0"],
            ["--policy", "full", "--paths", "0"],
            ["--policy", "fixed:0.04", "--seed", "-1"],
            ["--policy", "fixed:0.04", "--export-paths", "-1"],
        ],
        ids=["paths-0", "full-paths-0", "seed-negative", "export-paths-negative"],
    )
    def test_bad_counts_exit_2(self, config_path, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", config_path, "--out", str(tmp_path / "o")] + args)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_full_policy_summary_has_per_path_fills(self, config_path, tmp_path, monkeypatch):
        summaries = []
        engine = simulate.monte_carlo

        def spy(*args, **kwargs):
            summaries.append(engine(*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(simulate, "monte_carlo", spy)
        out = str(tmp_path / "out")
        argv = ["simulate", config_path, "--out", out, "--policy", "full", "--paths", "3"]
        assert main(argv + ["--seed", "2", "--export-paths", "2"]) == 0
        (summary,) = summaries
        assert len(summary.fills_bid_paths) == len(summary.fills_ask_paths) == 3
        assert summary.mean_fills_bid == pytest.approx(summary.fills_bid_paths.mean(), rel=1e-15)
        # the exported paths are the first paths of the summary's own batch
        for p, rec in enumerate(summary.records):
            assert rec.fills_bid == summary.fills_bid_paths[p]
            assert rec.pnl_penalized == summary.pnls[p]
        run_dir = run_files(out, "simulate")
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.txt", "path_000.csv", "path_001.csv", "summary.txt",
        ]

    @pytest.mark.parametrize(
        "policy, mpis, runs",
        [("fixed:0.04", ("50", "200"), 1), ("partial", ("12", "24"), 2)],
        ids=["fixed", "partial"],
    )
    def test_belief_grid_names_only_partial_runs(self, config_path, tmp_path, policy, mpis, runs):
        # only the partial surface reads --mpi, so only it gets a run per value
        out = tmp_path / "out"
        for mpi in mpis:
            argv = ["simulate", config_path, "--out", str(out), "--policy", policy]
            assert main(argv + ["--paths", "2", "--mpi", mpi]) == 0
        run_dirs = list((out / "simulate").iterdir())
        assert len(run_dirs) == runs
        manifest = (run_dirs[0] / "manifest.txt").read_text()
        assert ("mpi = " in manifest) == (policy == "partial")
        assert ("belief_gradient_scale = " in manifest) == (policy == "partial")

    def test_manifest_records_stream_scheme(self, config_path, tmp_path):
        # simulate runs name the random stream scheme behind their draws; the
        # solvers draw nothing and their manifests do not
        out = tmp_path / "out"
        argv = ["simulate", config_path, "--out", str(out), "--policy", "fixed:0.04"]
        assert main(argv + ["--paths", "2"]) == 0
        manifest = (run_files(out, "simulate") / "manifest.txt").read_text()
        assert "\nstreams = philox4x64-10-keyed\n" in manifest
        assert main(["solve-full", config_path, "--out", str(out), "--steps", "20"]) == 0
        assert "streams" not in (run_files(out, "solve-full") / "manifest.txt").read_text()

    def test_deterministic_rerun(self, config_path, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        argv = ["simulate", config_path, "--policy", "fixed:0.04", "--paths", "3", "--seed", "5"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        f1 = (run_files(out1, "simulate") / "path_000.csv").read_bytes()
        f2 = (run_files(out2, "simulate") / "path_000.csv").read_bytes()
        assert f1 == f2


class TestCompare:
    def test_emits_aligned_series(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["compare", config_path, "--out", out, "--mpi", "20"]) == 0
        run_dir = run_files(out, "compare")
        text = (run_dir / "compare_ask.csv").read_text()
        header = [l for l in text.splitlines() if l.startswith("t,")][0]
        assert header == "t,n,partial_ask_pi0,partial_ask_pi0.6,partial_ask_pi1,full_ask_i1,full_ask_i2"
        # blocked ask side at n = -N* shows the stub marker
        stub_rows = [l for l in text.splitlines() if l.split(",")[1:2] == ["-3"]]
        assert stub_rows and all("inf" in l for l in stub_rows)
        summary = (run_dir / "summary.txt").read_text()
        assert "pi = 0.6" in summary
        assert "stub (side blocked)" in summary


class TestGridArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-partial", "--mpi", "0"],
            ["compare", "--mpi", "0"],
            ["simulate", "--policy", "fixed:0.04", "--mpi", "0"],
            ["solve-full", "--steps", "0"],
            ["solve-partial", "--belief-gradient-scale", "-1", "--mt", "3"],
            ["solve-partial", "--belief-gradient-scale", "nan"],
            ["solve-partial", "--mt", "0"],
            ["solve-partial", "--mt", "many"],
        ],
        ids=[
            "solve-partial-mpi-0", "compare-mpi-0", "simulate-mpi-0", "solve-full-steps-0",
            "negative-scale", "nan-scale", "mt-0", "mt-word",
        ],
    )
    def test_bad_grid_argument_exit_2(self, config_path, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], config_path, "--out", str(tmp_path / "o")] + argv[1:])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mt_auto_and_count_accepted(self, config_path, tmp_path):
        for mt in ("auto", "40"):
            out = tmp_path / mt
            assert main(["solve-partial", config_path, "--out", str(out), "--mpi", "8", "--mt", mt]) == 0
            manifest = (run_files(out, "solve-partial") / "manifest.txt").read_text()
            assert f"mt = {mt}\n" in manifest


class TestUnstableFullMarch:
    """A full-information march too coarse for its rates exits 3 and writes
    nothing, where it used to write a surface of huge or NaN theta; without
    ``--steps`` the step search doubles past such counts, up to its cap."""

    FAST = IntensityFamily.exponential(10000.0, 25.0)
    # every count up to the search's cap leaves the sandwich in the first step
    SWITCHING = {"generator_Q": np.array([[-5e6, 5e6], [5e6, -5e6]])}
    PROBES = {
        "one-step": ({}, ["--steps", "1"]),
        # unstable at 100 to 3200 steps; stable from 6400, where the step
        # search's estimates still miss the tolerance
        "fast-regime": (
            {"regimes": (table1_spec().regimes[0], RegimeSpec("fast", FAST, FAST))}, ["--steps", "3200"]
        ),
        "fast-switching": ({"generator_Q": np.array([[-5000.0, 5000.0], [5000.0, -5000.0]])}, ["--steps", "10"]),
        "search-cap": (SWITCHING, []),
    }

    @pytest.mark.parametrize("probe", PROBES)
    def test_solve_full_exits_3(self, tmp_path, capsys, probe):
        spec_params, argv = self.PROBES[probe]
        cfg = write_config(tmp_path, with_params(table1_spec(), **spec_params))
        assert main(["solve-full", cfg, "--out", str(tmp_path / "o")] + argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: full-information march at ")
        assert captured.err.count("error:") == 1 and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_simulate_full_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_params(table1_spec(), **self.SWITCHING))
        argv = ["simulate", cfg, "--policy", "full", "--paths", "2", "--out", str(tmp_path / "o")]
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 1.0  # each rung stops at its first level
        err = capsys.readouterr().err
        assert err.startswith("error: full-information march at 51200 steps is unstable")
        assert err.rstrip().endswith("51200 steps is the most the step search tries")
        assert not (tmp_path / "o").exists()

    def test_search_stops_when_the_cap_is_out_of_reach(self, tmp_path, capsys, monkeypatch):
        # the fast-regime market without --steps: 100 to 3200 steps leave the
        # sandwich, 6400 has no partner, and at 12 800 the estimates (theta
        # 3.11e-5, spreads 5.31e-4) would miss at 51 200 steps even falling
        # 16-fold per doubling, so 25 600 and 51 200 are never marched
        counts = []
        surface = hjb_full._surface
        monkeypatch.setattr(hjb_full, "_surface", lambda plan, bounds, n: counts.append(n) or surface(plan, bounds, n))
        spec_params, _ = self.PROBES["fast-regime"]
        cfg = write_config(tmp_path, with_params(table1_spec(), **spec_params))
        assert main(["solve-full", cfg, "--out", str(tmp_path / "o")]) == 3
        assert counts == [100 * 2**j for j in range(8)] and counts[-1] == 12800
        err = capsys.readouterr().err
        assert err.startswith("error: full-information march at 12800 steps misses the error tolerance")
        assert "falling 16-fold per doubling, they would still miss at 51200 steps" in err
        assert not (tmp_path / "o").exists()

    def test_search_doubles_past_unstable_counts(self, tmp_path, capsys):
        # Q = +-300 leaves the sandwich at 100 and 200 steps; the estimates
        # pass first at 6400
        q = np.array([[-300.0, 300.0], [300.0, -300.0]])
        cfg = write_config(tmp_path, with_params(table1_spec(), generator_Q=q))
        assert main(["solve-full", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("steps = 6400, ")
        manifest = (run_files(tmp_path / "o", "solve-full") / "manifest.txt").read_text()
        assert "\nfull_steps = 6400\n" in manifest


class TestExitCodes:
    # a valid market with no inventory cap: neither solver supports it
    UNBOUNDED = dict(inventory_cap_Nstar=math.inf, running_penalty_zeta=0.0)

    @pytest.mark.parametrize(
        "spec_params, argv, code",
        [
            (UNBOUNDED, ["solve-full"], 2),
            (UNBOUNDED, ["solve-partial"], 2),
            (UNBOUNDED, ["compare"], 2),
            (UNBOUNDED, ["simulate", "--policy", "partial", "--paths", "2"], 2),
            (UNBOUNDED, ["simulate", "--policy", "full", "--paths", "2"], 2),
            # each side fills at 10 e^12.5 per unit time: the default belief step is unstable
            (UNBOUNDED, ["simulate", "--policy", "fixed:-0.5", "--paths", "5"], 2),
            (dict(terminal_cost_c=0.01), ["attractor", "--beta", "1"], 3),
        ],
        ids=[
            "solve-full", "solve-partial", "compare", "simulate-partial", "simulate-full",
            "simulate-negative-fixed", "attractor-terminal-cost",
        ],
    )
    def test_failure_exit_code(self, tmp_path, capsys, spec_params, argv, code):
        cfg = write_config(tmp_path, with_params(table1_spec(), **spec_params))
        out = ["--out", str(tmp_path / "o")] if argv[0] != "attractor" else []
        assert main([argv[0], cfg] + argv[1:] + out) == code
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.err.startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "o").exists()
