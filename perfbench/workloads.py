"""The benchmark's workloads: what each runs, and how its outputs are checked.

A workload is a ``prepare`` function, run once per benchmark run outside any
timing, and an ``iterate`` function that runs the workload's operation
sequence once through a :class:`Session`.  The session times every operation
and counts failures; a correctness gate runs after the operation it checks,
outside the timed section, and a failed gate counts as a failed operation.

Why these four (ROADMAP aim 1; sizes measured on 2 cores):

- ``solve`` is the user's solve-and-persist path.  CSV writing and reading
  dominate it, and writes and reads of the same layer sit side by side.
- ``refine`` runs the solver kernels without persistence or Monte Carlo:
  the PIDE ``Stepper.evaluate`` over a grid ladder and the RK4 ODE with the
  bisection ``optimal_spread`` of a logistic market.  Every CLI workload
  hides these kernels behind CSV or MC time.
- ``mc-partial`` runs the vectorized ``monte_carlo`` engine with
  ``PartialInfoPolicy.quotes_batch``, the per-path ``rng`` streams and the
  scalar ``simulate_path`` for the exported paths.
- ``mc-full`` is the only workload on the regime-true scalar engine
  (``simulate_with_regime``), with thousands of scalar ``hjb_full.policy``
  calls per path.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from regimemm import cli, hjb_full, hjb_partial
from regimemm.model import load_config

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ROOT / "configs" / "table1.cfg"
LOGISTIC = Path(__file__).resolve().parent / "logistic.cfg"

MPI = 200
FULL_STEPS = 2000
LADDER = (100, 200, 400, 800)
LOGISTIC_STEPS = 250
PROBE_TIMES = 41
PARTIAL_PATHS = 2000
FULL_PATHS = 20
# The MC gates use the acceptance suite's criterion-3 form with 4 standard
# errors instead of its 3: the suite checks one fixed seed, while the
# benchmark is run at dozens of seeds per comparison, and at 3 SE about
# 0.3 % of correct runs (0.7 % at the 20-path t tail) would fail by chance.
SE_GATE = 4.0


class Session:
    """Times one iteration's operations and counts what failed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.values: defaultdict[str, float] = defaultdict(float)

    def op(self, step: str, fn, *args):
        """Runs ``fn(*args)`` as one operation; its time adds to ``<step>_s``.

        Returns the result, or None when the call raised.
        """
        self.attempted += 1
        span = self.tracer.span(f"op.{step}") if self.tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception:
            result = None
            self.fail(f"{step} raised\n{traceback.format_exc()}")
        seconds = perf_counter() - t0
        self.values[f"{step}_s"] += seconds
        self.wall_s += seconds
        return result

    def report(self) -> dict[str, float]:
        """This iteration's step values and its total operation time."""
        return {**self.values, "wall_s": self.wall_s}

    def cli(self, step: str, argv: list[str]) -> bool:
        """Runs one CLI command with its stdout discarded; True on exit 0."""

        def call():
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                return exc.code

        with contextlib.redirect_stdout(io.StringIO()):
            code = self.op(step, call)
        if code is None:
            return False
        return self.gate(code == 0, f"regimemm {' '.join(argv)} exited with {code}")

    def gate(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def _read_summary(out: Path) -> tuple[float, float, float]:
    """(mean_pnl, stderr, paths) from the summary the simulate command wrote."""
    (path,) = out.glob("simulate/*/summary.txt")
    values = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    return float(values["mean_pnl"]), float(values["stderr"]), float(values["paths"])


def _mc_gate(s: Session, out: Path, target: float) -> None:
    """|mean - target| < SE_GATE standard errors; also records the MC metrics."""
    try:
        mean, stderr, paths = _read_summary(out)
    except (OSError, ValueError, KeyError):
        s.fail(f"no readable simulate summary under {out}")
        return
    seconds = s.values["simulate_s"]
    s.values["mc_paths_per_s"] = paths / seconds
    s.values["mc_err2_s"] = stderr**2 * seconds
    s.values["mc_stderr"] = stderr
    gap = abs(mean - target)
    s.gate(
        gap < SE_GATE * stderr,
        f"MC mean {mean:.6f} is {gap:.2e} from {target:.6f} "
        f"(>= {SE_GATE:g} SE = {SE_GATE * stderr:.2e})",
    )


# -- solve ---------------------------------------------------------------------


def prepare_solve():
    return {"partial": hjb_partial.solve(load_config(TABLE1), m_pi=MPI)}


def _read_partial_surface(out: Path):
    (path,) = out.glob("solve-partial/*/surface_partial.csv")
    return hjb_partial.surface_from_csv(path.read_text(encoding="utf-8"))


def _same_surface(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("time_grid", "pi_grid", "theta", "spread_bid", "spread_ask")
    )


def iterate_solve(s: Session, out: Path, seed: int, refs) -> None:
    cfg, root = str(TABLE1), str(out)
    s.cli("solve_full", ["solve-full", cfg, "--out", root, "--steps", str(FULL_STEPS)])
    s.cli("solve_partial", ["solve-partial", cfg, "--out", root, "--mpi", str(MPI)])
    s.cli("compare", ["compare", cfg, "--out", root, "--mpi", str(MPI)])
    for beta in (1, 2):
        s.cli("attractor", ["attractor", cfg, "--beta", str(beta)])
    surface = s.op("surface_read", _read_partial_surface, out)
    if surface is not None:
        s.gate(
            _same_surface(surface, refs["partial"]),
            "surface read back differs from a library solve of the same grid",
        )


# -- refine --------------------------------------------------------------------


def prepare_refine():
    logistic = load_config(LOGISTIC)
    return {
        "table1": load_config(TABLE1),
        "logistic": logistic,
        "bounds": hjb_full.comparison_bounds(logistic),
    }


def _theta_at_probes(surface, times: np.ndarray) -> np.ndarray:
    """theta at every stored belief node, interpolated linearly to ``times``
    (the values ``PartialInfoSurface.theta_at`` gives at grid nodes)."""
    tg = surface.time_grid
    s = np.clip(np.searchsorted(tg, times, side="right") - 1, 0, len(tg) - 2)
    w = ((times - tg[s]) / (tg[s + 1] - tg[s]))[:, None, None]
    return (1.0 - w) * surface.theta[s] + w * surface.theta[s + 1]


def iterate_refine(s: Session, out: Path, seed: int, refs) -> None:
    spec = refs["table1"]
    times = np.linspace(0.0, spec.horizon_T, PROBE_TIMES)
    probes = []
    for m_pi in LADDER:
        surface = s.op("pide_ladder", hjb_partial.solve, spec, m_pi)
        # keep only the probe values so one rung's tables are alive at a time
        probes.append(None if surface is None else _theta_at_probes(surface, times))
        del surface
    if all(p is not None for p in probes):
        # sup difference on the coarse rung's belief nodes (criterion 7 form)
        diffs = [float(np.max(np.abs(c - f[:, :, ::2]))) for c, f in zip(probes, probes[1:])]
        s.gate(
            all(a > b for a, b in zip(diffs, diffs[1:])),
            f"ladder sup differences {diffs} do not decrease",
        )

    full = s.op("ode_logistic", hjb_full.solve_constrained, refs["logistic"], LOGISTIC_STEPS)
    if full is not None:
        k_up, k_low = refs["bounds"]
        T = refs["logistic"].horizon_T
        theta = full.theta
        s.gate(
            bool(np.all(np.isfinite(theta)))
            and bool(np.all(theta <= k_up * T + 1e-12))
            and bool(np.all(theta >= -k_up * T - k_low - 1e-12)),
            "logistic theta is not finite or leaves the comparison bounds (criterion 6 form)",
        )


# -- Monte Carlo -----------------------------------------------------------------


def prepare_mc_partial():
    surface = hjb_partial.solve(load_config(TABLE1), m_pi=MPI)
    return {"theta0": surface.theta_at(0.0, 0, 0.5)}


def iterate_mc_partial(s: Session, out: Path, seed: int, refs) -> None:
    argv = ["simulate", str(TABLE1), "--out", str(out), "--policy", "partial"]
    argv += ["--paths", str(PARTIAL_PATHS), "--seed", str(seed), "--mpi", str(MPI)]
    if s.cli("simulate", argv):
        _mc_gate(s, out, refs["theta0"])


def prepare_mc_full():
    spec = load_config(TABLE1)
    surface = hjb_full.solve_constrained(spec, n_steps=FULL_STEPS)
    prior = spec.initial_filter_mu0
    return {"theta0": sum(p * surface.theta_at(0.0, 0, i + 1) for i, p in enumerate(prior))}


def iterate_mc_full(s: Session, out: Path, seed: int, refs) -> None:
    argv = ["simulate", str(TABLE1), "--out", str(out), "--policy", "full"]
    argv += ["--paths", str(FULL_PATHS), "--seed", str(seed)]
    if s.cli("simulate", argv):
        _mc_gate(s, out, refs["theta0"])


# name -> (prepare, iterate, configs loaded by the timed set-up)
WORKLOADS = {
    "solve": (prepare_solve, iterate_solve, (TABLE1,)),
    "refine": (prepare_refine, iterate_refine, (TABLE1, LOGISTIC)),
    "mc-partial": (prepare_mc_partial, iterate_mc_partial, (TABLE1,)),
    "mc-full": (prepare_mc_full, iterate_mc_full, (TABLE1,)),
}

# per-iteration values each workload reports, with units
STEP_UNITS = {
    "wall_s": "s",
    "solve_full_s": "s",
    "solve_partial_s": "s",
    "compare_s": "s",
    "attractor_s": "s",
    "surface_read_s": "s",
    "pide_ladder_s": "s",
    "ode_logistic_s": "s",
    "mc_paths_per_s": "1/s",
    "mc_err2_s": "pnl2.s",
    "mc_stderr": "pnl",
}
