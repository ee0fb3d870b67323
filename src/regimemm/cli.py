"""Command-line front door: config ingestion, run orchestration, persistence.

Subcommands::

    regimemm solve-full CONFIG --out DIR [--steps N]
    regimemm solve-partial CONFIG --out DIR [--mpi M] [--mt N|auto] [--belief-gradient-scale S]
    regimemm simulate CONFIG --out DIR --policy {partial|full|fixed:D} [--paths P] [--seed S]
    regimemm attractor CONFIG --beta {1,2}
    regimemm compare CONFIG --out DIR [--mpi M] [--belief-gradient-scale S]

Every run writes its files under ``<out>/<command>/<manifest-hash>/`` next to
a flat-text manifest; each output file carries the manifest hash that
produced it.  Exit codes: 0 success, 2 configuration/validation problem,
3 numerical or surface failure.  Outputs are byte-for-byte reproducible for
fixed inputs except the manifest's wall-clock line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, filtering, hjb_full, hjb_partial, simulate
from .errors import ConfigError, NumericsError, UnsupportedConfigError
from .model import ModelSpec, format_config, load_config, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


class RunManifest:
    """Flat-text record of one command run; the hash covers everything except
    the wall-clock line, so reruns reproduce it bit-for-bit."""

    def __init__(self, command: str, spec: ModelSpec, params: dict, outputs: list[str]):
        self.command = command
        self.spec_text = format_config(spec)
        self.params = {k: str(v) for k, v in params.items()}
        self.outputs = list(outputs)

    def payload(self) -> str:
        buf = io.StringIO()
        buf.write(f"command = {self.command}\n")
        buf.write(f"version = {__version__}\n")
        for key in sorted(self.params):
            buf.write(f"{key} = {self.params[key]}\n")
        for line in self.spec_text.strip().splitlines():
            buf.write(f"spec.{line}\n")
        for name in self.outputs:
            buf.write(f"output = {name}\n")
        return buf.getvalue()

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.payload().encode()).hexdigest()[:16]

    def render(self, wall_clock: float) -> str:
        return (
            self.payload()
            + f"manifest_hash = {self.hash}\n"
            + f"wall_clock_seconds = {wall_clock:.3f}\n"
        )


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_spec(path: str):
    """Returns (spec, None) or (None, exit code) after printing the issue."""
    try:
        spec = load_config(path)
    except OSError as exc:
        return None, _fail(f"cannot read config: {exc}", EXIT_CONFIG)
    except ConfigError as exc:
        return None, _fail(f"config parse failure: {exc}", EXIT_CONFIG)
    violations = validate(spec)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return None, EXIT_CONFIG
    return spec, None


def _run_dir(out_root: str, command: str, manifest: RunManifest) -> Path:
    path = Path(out_root) / command / manifest.hash
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _finish(run_dir: Path, manifest: RunManifest, started: float) -> int:
    _write(run_dir / "manifest.txt", manifest.render(time.time() - started))
    print(run_dir)
    return EXIT_OK


def cmd_solve_full(args) -> int:
    started = time.time()
    spec, code = _load_spec(args.config)
    if spec is None:
        return code
    manifest = RunManifest(
        "solve-full", spec, {"steps": args.steps}, ["surface_full.csv"]
    )
    try:
        surface = hjb_full.solve_constrained(spec, n_steps=args.steps)
    except UnsupportedConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except NumericsError as exc:
        return _fail(f"solver failure: {exc}", EXIT_NUMERICS)
    run_dir = _run_dir(args.out, "solve-full", manifest)
    _write(
        run_dir / "surface_full.csv",
        hjb_full.surface_to_csv(surface, {"manifest": manifest.hash}),
    )
    return _finish(run_dir, manifest, started)


def cmd_solve_partial(args) -> int:
    started = time.time()
    spec, code = _load_spec(args.config)
    if spec is None:
        return code
    manifest = RunManifest(
        "solve-partial",
        spec,
        {"mpi": args.mpi, "mt": args.mt or "auto", "belief_gradient_scale": args.belief_gradient_scale},
        ["surface_partial.csv"],
    )
    try:
        surface = hjb_partial.solve(
            spec, m_pi=args.mpi, m_t=args.mt, belief_gradient_scale=args.belief_gradient_scale
        )
    except UnsupportedConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except NumericsError as exc:
        return _fail(f"solver failure: {exc}", EXIT_NUMERICS)
    run_dir = _run_dir(args.out, "solve-partial", manifest)
    _write(
        run_dir / "surface_partial.csv",
        hjb_partial.surface_to_csv(surface, {"manifest": manifest.hash}),
    )
    rep = surface.cfl_report
    print(
        f"cfl_max_coeff = {rep.max_coefficient:.6g}, steps = {rep.n_steps}, "
        f"dt in [{rep.min_dt:.3e}, {rep.max_dt:.3e}]"
    )
    return _finish(run_dir, manifest, started)


def _build_policy(spec: ModelSpec, name: str, mpi: int, scale: float) -> simulate.Policy:
    if name == "partial":
        surface = hjb_partial.solve(spec, m_pi=mpi, belief_gradient_scale=scale)
        return simulate.PartialInfoPolicy(surface)
    if name == "full":
        return simulate.FullInfoPolicy(hjb_full.solve_constrained(spec))
    if name.startswith("fixed:"):
        delta = float(name.split(":", 1)[1])
        return simulate.FixedSpreadPolicy(delta, delta)
    raise ValueError(f"unknown policy {name!r} (expected partial, full or fixed:D)")


def cmd_simulate(args) -> int:
    started = time.time()
    spec, code = _load_spec(args.config)
    if spec is None:
        return code
    export = min(args.export_paths, args.paths)
    outputs = [f"path_{p:03d}.csv" for p in range(export)] + ["summary.txt"]
    manifest = RunManifest(
        "simulate",
        spec,
        {
            "policy": args.policy,
            "paths": args.paths,
            "seed": args.seed,
            "mpi": args.mpi,
            "belief_gradient_scale": args.belief_gradient_scale,
            "export_paths": export,
        },
        outputs,
    )
    try:
        policy = _build_policy(spec, args.policy, args.mpi, args.belief_gradient_scale)
    except (UnsupportedConfigError, NumericsError) as exc:
        return _fail(f"policy surface unavailable: {exc}", EXIT_NUMERICS)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    try:
        # the full-information policy quotes on the hidden regime, so its
        # orders are thinned against that regime's intensity
        summary = simulate.monte_carlo(
            spec, policy, args.paths, args.seed,
            regime_true=args.policy == "full", export_paths=export,
        )
    except NumericsError as exc:
        return _fail(f"simulation failure: {exc}", EXIT_NUMERICS)
    run_dir = _run_dir(args.out, "simulate", manifest)
    stamp = f"# manifest = {manifest.hash}\n"
    for p, rec in enumerate(summary.records):
        _write(run_dir / f"path_{p:03d}.csv", stamp + rec.to_csv())
    _write(run_dir / "summary.txt", stamp + summary.to_text())
    print(
        f"mean_pnl = {summary.mean_pnl:.6g} +- {summary.stderr:.2g} "
        f"({summary.paths} paths, fills {summary.mean_fills_bid:.2f}/{summary.mean_fills_ask:.2f})"
    )
    return _finish(run_dir, manifest, started)


def cmd_attractor(args) -> int:
    spec, code = _load_spec(args.config)
    if spec is None:
        return code
    try:
        root = filtering.attractor(spec, beta=args.beta)
    except (UnsupportedConfigError, ValueError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except NumericsError as exc:
        return _fail(str(exc), EXIT_NUMERICS)
    print(f"pi_star = {root:.10f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    started = time.time()
    spec, code = _load_spec(args.config)
    if spec is None:
        return code
    manifest = RunManifest(
        "compare",
        spec,
        {"mpi": args.mpi, "belief_gradient_scale": args.belief_gradient_scale},
        ["compare_ask.csv", "summary.txt"],
    )
    try:
        partial = hjb_partial.solve(
            spec, m_pi=args.mpi, belief_gradient_scale=args.belief_gradient_scale
        )
        full = hjb_full.solve_constrained(spec)
    except UnsupportedConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except NumericsError as exc:
        return _fail(f"solver failure: {exc}", EXIT_NUMERICS)

    run_dir = _run_dir(args.out, "compare", manifest)
    stamp = f"# manifest = {manifest.hash}\n"
    beliefs = (0.0, 0.6, 1.0)
    times = np.linspace(0.0, spec.horizon_T, 201)
    buf = io.StringIO()
    buf.write(stamp)
    buf.write(
        "t,n,"
        + ",".join(f"partial_ask_pi{pi:g}" for pi in beliefs)
        + ",full_ask_i1,full_ask_i2\n"
    )
    # one array call per output column: asks[r][s] is the row at times[s], levels[r]
    asks = [
        np.column_stack(
            [hjb_partial.policy(partial, times, n, pi)[1] for pi in beliefs]
            + [hjb_full.policy(full, times, n, i)[1] for i in (1, 2)]
        ).tolist()
        for n in spec.inventory_levels()
    ]
    for s, t in enumerate(times.tolist()):
        for n, table in zip(spec.inventory_levels().tolist(), asks):
            buf.write("%.17g,%d" % (t, n) + "".join(",%.17g" % v for v in table[s]) + "\n")
    _write(run_dir / "compare_ask.csv", buf.getvalue())

    lines = [stamp.strip()]
    lines.append("ask-spread excess of partial information at pi = 0.6, t = 0:")
    for n, table in zip(spec.inventory_levels().tolist(), asks):
        if not spec.ask_active(n):
            lines.append(f"n = {n}: stub (side blocked)")
            continue
        # the t = times[0] = 0 row: columns pi = 0, 0.6, 1, then regimes 1, 2
        ask_part, ask_f = table[0][1], table[0][3:]
        ratios = ", ".join(
            f"vs regime {i + 1}: {100.0 * (ask_part / a - 1.0):+.2f}%"
            for i, a in enumerate(ask_f)
        )
        lines.append(f"n = {n}: partial {ask_part:.6f} ({ratios})")
    _write(run_dir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines[1:]))
    return _finish(run_dir, manifest, started)


def _number_in(kind, lo, hi=None):
    """argparse type: a ``kind`` (int or float) in [lo, hi]; anything else,
    NaN included, exits 2."""

    def number(text: str):
        value = kind(text)
        if not value >= lo or (hi is not None and value > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value

    return number


def _steps_or_auto(text: str) -> int | None:
    """argparse type for ``--mt``: a positive step count, or None for 'auto'."""
    return None if text == "auto" else _number_in(int, 1)(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimemm",
        description="Optimal market-making spread policies under a hidden market regime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("config", help="model configuration file")
        if out:
            p.add_argument("--out", default="out", help="output root directory")

    p = sub.add_parser("solve-full", help="solve the full-information system")
    add_common(p)
    p.add_argument("--steps", type=_number_in(int, 1), default=hjb_full.DEFAULT_TIME_STEPS)
    p.set_defaults(func=cmd_solve_full)

    p = sub.add_parser("solve-partial", help="solve the partial-information scheme")
    add_common(p)
    p.add_argument("--mpi", type=_number_in(int, 1), default=hjb_partial.DEFAULT_PI_CELLS)
    p.add_argument(
        "--mt", type=_steps_or_auto, default=None, help="time steps, or 'auto' for CFL-driven"
    )
    p.add_argument("--belief-gradient-scale", type=_number_in(float, 0.0), default=1.0)
    p.set_defaults(func=cmd_solve_partial)

    p = sub.add_parser("simulate", help="Monte Carlo under a feedback policy")
    add_common(p)
    p.add_argument("--policy", required=True, help="partial | full | fixed:D")
    p.add_argument("--paths", type=_number_in(int, 1), default=1000)
    p.add_argument("--seed", type=_number_in(int, 0, 2**64 - 1), default=0)
    p.add_argument("--mpi", type=_number_in(int, 1), default=hjb_partial.DEFAULT_PI_CELLS)
    p.add_argument("--belief-gradient-scale", type=_number_in(float, 0.0), default=1.0)
    p.add_argument("--export-paths", type=_number_in(int, 0), default=4)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attractor", help="quiet-period equilibrium belief")
    add_common(p, out=False)
    p.add_argument("--beta", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=cmd_attractor)

    p = sub.add_parser("compare", help="partial vs full information spread series")
    add_common(p)
    p.add_argument("--mpi", type=_number_in(int, 1), default=hjb_partial.DEFAULT_PI_CELLS)
    p.add_argument("--belief-gradient-scale", type=_number_in(float, 0.0), default=1.0)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
