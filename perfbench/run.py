"""regimemm benchmark: one workload per run, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

The run imports regimemm from ``src/`` and drives it from outside, through
``regimemm.cli.main`` and the public library functions.  It repeats the
workload's operation sequence for about ``--seconds`` (at least once) and
reports medians over those iterations.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``).  With ``--trace 1`` the run first measures
untraced iterations the same way, then runs one more iteration with every
target in ``tracer.TARGETS`` wrapped, and reports the per-layer metrics, the
untraced step metrics and the tracing overhead.  The spans of the traced
iteration are written to ``.bench_build/perfbench/trace-<workload>.npz``.

CLI outputs go to a temporary directory under ``.bench_build/perfbench/``
that is removed after each iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MAX_ITERATIONS = 20
SETUP_REPEATS = 3  # fresh set-up processes before the first iteration
SETUP_CODE = (
    "import sys\n"
    "import regimemm\n"
    "from regimemm.model import load_config, validate\n"
    "sys.exit(1 if any(validate(load_config(p)) for p in sys.argv[1:]) else 0)\n"
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.absent": "count",
}


def per_layer_units(tracing, workloads) -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    units = tracing.metric_units()
    units.update({f"step.{name}": unit for name, unit in workloads.STEP_UNITS.items()})
    units.update(TRACE_UNITS)
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """BLAS pools at most one thread per available core (before numpy loads)."""
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(min(max(current, 1), cap))


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(configs, repeats: int) -> tuple[list[float], int]:
    """Interpreter start, ``import regimemm``, load_config and validate, in
    ``repeats`` fresh processes one after another; returns the times and the
    failed count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, failed = [], 0
    for _ in range(repeats):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child and the measured
        # time rounds up by as much as 50 ms
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *map(str, configs)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
        failed += proc.returncode != 0
    return times, failed


def run_iteration(session, iterate, refs, seed):
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp) as out:
        iterate(session, Path(out), seed, refs)
    return session


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regimemm" / "__init__.py").is_file():
        print(f"error: no regimemm sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import regimemm
    import tracer as tracing
    import workloads

    if Path(regimemm.__file__).resolve().parent != SRC / "regimemm":
        print(f"error: imported regimemm from {regimemm.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    prepare, iterate, configs = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK / "tmp", ignore_errors=True)  # left by a killed run

    # set-up is sampled before and between the iterations, so that its
    # median spans the run rather than one moment of a noisy machine; the
    # samples count towards --seconds
    deadline = perf_counter() + args.seconds
    setup_times, setup_failed = measure_setup(configs, SETUP_REPEATS)
    refs = prepare()

    # iterations repeat while the next one, judged by the median so far, ends
    # no more than half an iteration past the deadline, so that a run lasts
    # about --seconds unless a single iteration takes longer
    sessions, rounds = [], []
    while len(sessions) < MAX_ITERATIONS:
        t0 = perf_counter()
        sessions.append(run_iteration(workloads.Session(), iterate, refs, args.seed))
        times, fails = measure_setup(configs, 1)
        setup_times += times
        setup_failed += fails
        rounds.append(perf_counter() - t0)
        if perf_counter() + statistics.median(rounds) / 2 > deadline:
            break

    attempted = len(setup_times) + sum(s.attempted for s in sessions)
    failed = setup_failed + sum(s.failed for s in sessions)
    steps = {
        name: statistics.median(s.report().get(name, 0.0) for s in sessions)
        for name in workloads.STEP_UNITS
    }
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "git": git_sha(),
    }
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"iterations={len(sessions)} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    for name, unit in workloads.STEP_UNITS.items():
        if steps[name]:
            print(f"  {name} = {steps[name]:.6g} {unit}")

    if args.trace:
        with tracing.Tracer() as tracer:
            traced = run_iteration(workloads.Session(tracer), iterate, refs, args.seed)
        attempted += traced.attempted
        failed += traced.failed
        metrics = tracer.metrics()
        metrics.update({f"step.{name}": value for name, value in steps.items()})
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead_s"] = traced.wall_s - steps["wall_s"]
        metrics["trace.spans"] = len(tracer.start)
        metrics["trace.absent"] = len(tracer.absent)
        units = per_layer_units(tracing, workloads)
        print(f"  absent: {' '.join(tracer.absent) or '(none)'}")
        WORK.mkdir(parents=True, exist_ok=True)
        np.savez(
            WORK / f"trace-{args.workload}.npz",
            env=np.array(json.dumps(env)),
            absent=np.array(tracer.absent, dtype=str),
            **tracer.arrays(),
        )
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": steps["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
