"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The exact-count test runs every workload twice in traced mode, so it takes
a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# counts that depend only on the workload and the seed
EXACT = [f"{name}.calls" for name, *_ in tracing.TARGETS] + [
    "hjb_partial.cfl_steps",
    "hjb_partial.table_bytes",
    "hjb_partial.surface_to_csv.bytes",
    "hjb_full.surface_to_csv.bytes",
    "simulate.fills_per_path",
    "trace.spans",
    "trace.absent",
]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(
        tracing, workloads
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_reports_absent_targets_and_restores_originals():
    from regimemm import rng

    original = rng.stream
    targets = (
        ("rng.stream", "rng", "stream", None),
        ("rng.gone", "rng", "no_such_function", None),
        ("rng.Gone.method", "rng", "NoSuchClass.method", None),
        ("nowhere.f", "no_such_module", "f", None),
    )
    with tracing.Tracer(targets=targets) as tracer:
        assert rng.stream is not original
        rng.PathStreams(1, 0)
    assert rng.stream is original
    assert tracer.absent == ["rng.gone", "rng.Gone.method", "nowhere.f"]
    metrics = tracer.metrics()
    assert metrics["rng.stream.calls"] == 3
    assert metrics["rng.gone.calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(targets=())
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    assert list(spans["parent"]) == [-1, 0]
    stats = tracer.span_stats()
    assert stats["outer"][2] == pytest.approx(dur[0] - dur[1])
    assert stats["inner"][2] == pytest.approx(dur[1])


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["trace.absent"] == 0
