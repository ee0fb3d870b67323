"""Every function the benchmark tracer patches still exists.

``perfbench/tracer.py`` reports a target whose module, class or attribute is
gone as absent and carries on, so a rename would otherwise surface only in
the slow ``python3 -m pytest perfbench`` run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer as tracing  # noqa: E402

from regimemm import simulate  # noqa: E402


def test_every_traced_target_resolves():
    original = simulate._filter_jump
    tracer = tracing.Tracer()
    try:
        assert tracer.absent == []
        assert simulate._filter_jump is not original
    finally:
        tracer.close()
    assert simulate._filter_jump is original
