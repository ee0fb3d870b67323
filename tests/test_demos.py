"""Smoke runs of the demos: each finishes and writes its CSV output."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo, outputs",
    [
        ("demo_spread_policies.py", ["out/demo_spread_policies/ask_spreads.csv"]),
        ("demo_filter_attractor.py", ["out/demo_filter_attractor/belief_path.csv"]),
        (
            "demo_monte_carlo.py",
            ["out/demo_monte_carlo/path_000.csv", "out/demo_monte_carlo/path_003.csv"],
        ),
        ("demo_filter_vs_truth.py", ["out/demo_filter_vs_truth/belief_vs_truth.csv"]),
    ],
)
def test_demo_runs_and_writes_csv(demo, outputs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1 and "," in lines[0]
