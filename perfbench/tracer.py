"""In-memory span tracer that wraps regimemm functions from the outside.

Each target is patched at the name its caller looks up (``hjb_full`` calls
``optimal_spread`` through its own module global, so that global is the one
replaced).  A target whose module, class or attribute no longer exists is
reported as absent and the run goes on, so the benchmark keeps working when
later changes delete or rename the code it measures.  Every original is put
back when the tracer is closed.

Spans are kept in flat arrays (name id, parent span, start, end), one per
wrapped call, and are written out only when the run ends.  A span's self time
is its duration minus the durations of its direct children; calls nest
strictly because everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count_nodes(counters, args, result):
    # Stepper.evaluate(self, theta): one node per entry of the theta panel
    counters["hjb_partial.evaluate_nodes"] += sum(
        a.size for a in args if isinstance(a, np.ndarray)
    )


def _count_tables(counters, args, result):
    counters["hjb_partial.cfl_steps"] += result.cfl_report.n_steps
    counters["hjb_partial.table_bytes"] += sum(
        v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
    )


def _count_text(key):
    def observe(counters, args, result):
        counters[key] += len(result)

    return observe


def _count_mc(counters, args, result):
    counters["simulate.mc_paths"] += result.paths
    counters["simulate.mc_fills"] += int(
        np.sum(result.fills_bid_paths) + np.sum(result.fills_ask_paths)
    )


# (metric name, module whose namespace the caller reads, attribute path, observer)
TARGETS = (
    ("cli.cmd_solve_full", "cli", "cmd_solve_full", None),
    ("cli.cmd_solve_partial", "cli", "cmd_solve_partial", None),
    ("cli.cmd_compare", "cli", "cmd_compare", None),
    ("cli.cmd_attractor", "cli", "cmd_attractor", None),
    ("cli.cmd_simulate", "cli", "cmd_simulate", None),
    ("model.load_config", "cli", "load_config", None),
    ("model.validate", "cli", "validate", None),
    ("intensity.hamiltonian_value", "hjb_full", "hamiltonian_value", None),
    ("intensity.optimal_spread", "hjb_full", "optimal_spread", None),
    ("intensity.eval_intensity", "simulate", "eval_intensity", None),
    ("filtering.attractor", "filtering", "attractor", None),
    ("filtering.jump_update", "simulate", "_filter_jump", None),
    ("hjb_partial.solve", "hjb_partial", "solve", _count_tables),
    ("hjb_partial.Stepper.evaluate", "hjb_partial", "Stepper.evaluate", _count_nodes),
    ("hjb_partial.policy", "hjb_partial", "policy", None),
    (
        "hjb_partial.surface_to_csv",
        "hjb_partial",
        "surface_to_csv",
        _count_text("hjb_partial.surface_to_csv.bytes"),
    ),
    ("hjb_partial.surface_from_csv", "hjb_partial", "surface_from_csv", None),
    ("hjb_full.solve_constrained", "hjb_full", "solve_constrained", None),
    ("hjb_full._rhs", "hjb_full", "_rhs", None),
    ("hjb_full.policy", "hjb_full", "policy", None),
    (
        "hjb_full.surface_to_csv",
        "hjb_full",
        "surface_to_csv",
        _count_text("hjb_full.surface_to_csv.bytes"),
    ),
    ("simulate.monte_carlo", "simulate", "monte_carlo", _count_mc),
    ("simulate.PartialInfoPolicy.quotes_batch", "simulate", "PartialInfoPolicy.quotes_batch", None),
    ("simulate.simulate_path", "simulate", "simulate_path", None),
    ("simulate.PathRecord.to_csv", "simulate", "PathRecord.to_csv", None),
    ("simulate.simulate_with_regime", "simulate", "simulate_with_regime", None),
    ("simulate.draw_regime_path", "simulate", "draw_regime_path", None),
    ("simulate.FullInfoPolicy.quotes", "simulate", "FullInfoPolicy.quotes", None),
    ("rng.stream", "rng", "stream", None),
)

# metrics computed from the spans and the observers' counters, with units
DERIVED = (
    ("hjb_partial.evaluate_ns_per_node", "ns"),
    ("hjb_partial.cfl_steps", "count"),
    ("hjb_partial.table_bytes", "B"),
    ("hjb_partial.surface_to_csv.bytes", "B"),
    ("hjb_full.surface_to_csv.bytes", "B"),
    ("simulate.ms_per_path", "ms"),
    ("simulate.fills_per_path", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-span and derived metric name with its unit."""
    units = {}
    for name, *_ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Patches the targets on construction; ``close`` restores them."""

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list = []
        self._targets = [t[0] for t in targets]
        try:
            for name, module, path, observe in targets:
                self._patch(name, module, path, observe)
        except BaseException:
            self.close()
            raise

    def _patch(self, name, module, path, observe):
        try:
            owner = importlib.import_module(f"regimemm.{module}")
        except ImportError:
            self.absent.append(name)
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            self.absent.append(name)
            return
        own = vars(owner)
        if attr in own:
            original = own[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited method: shadow it, then delete the shadow
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), observe))

    def _id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, observe):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Records a span around one of the benchmark's own operations."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """(calls, inclusive seconds, self seconds) per recorded span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def metrics(self) -> dict[str, float]:
        """Calls, inclusive and self seconds per target, plus derived metrics."""
        stats = self.span_stats()
        out = {}
        for name in self._targets:
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        c = self.counters
        nodes = c["hjb_partial.evaluate_nodes"]
        paths = c["simulate.mc_paths"]
        evaluate_s = stats.get("hjb_partial.Stepper.evaluate", (0, 0.0, 0.0))[1]
        mc_s = stats.get("simulate.monte_carlo", (0, 0.0, 0.0))[1]
        out["hjb_partial.evaluate_ns_per_node"] = 1e9 * evaluate_s / nodes if nodes else 0.0
        for key in (
            "hjb_partial.cfl_steps",
            "hjb_partial.table_bytes",
            "hjb_partial.surface_to_csv.bytes",
            "hjb_full.surface_to_csv.bytes",
        ):
            out[key] = int(c[key])
        out["simulate.ms_per_path"] = 1e3 * mc_s / paths if paths else 0.0
        out["simulate.fills_per_path"] = c["simulate.mc_fills"] / paths if paths else 0.0
        return out
