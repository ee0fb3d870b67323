"""Command-line front door: config ingestion, run orchestration, persistence.

Subcommands::

    regimemm solve-full CONFIG --out DIR [--steps N]
    regimemm solve-partial CONFIG --out DIR [--mpi M] [--mt N|auto] [--belief-gradient-scale S]
    regimemm simulate CONFIG --out DIR --policy {partial|full|fixed:D} [--paths P] [--seed S]
    regimemm attractor CONFIG --beta {1,2}
    regimemm compare CONFIG --out DIR [--mpi M] [--belief-gradient-scale S]

One runner (``_run``) loads and validates the config, lets the command do its
work and render its files from the manifest hash, and only then writes them
under ``<out>/<command>/<manifest-hash>/`` next to a flat-text manifest; each
output file carries the manifest hash that produced it.  Exit codes, decided
in ``main`` alone: 0 success, 2 configuration, validation or argument
problem, 3 numerical failure.  A failed run writes no directory.  Outputs are
byte-for-byte reproducible for fixed inputs except the manifest's wall-clock
line.

Without ``--steps``, ``solve-full``, and ``compare`` and ``simulate --policy
full`` always, take the full-information march's step count from
``hjb_full``'s error-controlled doubling search; the manifest records the
chosen count as ``full_steps``.

Each command imports the solver and simulator modules it runs when it runs,
so ``attractor`` loads only the filter, ``solve-full`` and ``solve-partial``
their own solver, and only ``simulate`` loads the simulator.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericsError, UnsupportedConfigError
from .grid import DEFAULT_PI_CELLS
from .model import ModelSpec, format_config, load_config, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _manifest_payload(command: str, spec: ModelSpec, params: dict, outputs) -> str:
    """Flat-text record of one command run, all of which the manifest hash
    covers; the wall-clock line is written after it, so reruns reproduce
    the hash bit-for-bit."""
    lines = [f"command = {command}", f"version = {__version__}"]
    lines += [f"{key} = {params[key]}" for key in sorted(params)]
    lines += [f"spec.{line}" for line in format_config(spec).strip().splitlines()]
    lines += [f"output = {name}" for name in outputs]
    return "\n".join(lines) + "\n"


def _load_spec(path: str) -> ModelSpec:
    """The validated spec at ``path``; raises ``ConfigError`` otherwise."""
    try:
        spec = load_config(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    violations = validate(spec)
    if violations:
        raise ConfigError("invalid config: " + "; ".join(violations))
    return spec


def _stamped(text: str):
    """An output renderer that heads ``text`` with the manifest hash."""
    return lambda manifest_hash: f"# manifest = {manifest_hash}\n" + text


def _run(args) -> int:
    """Every command's run: the command returns None (stdout only) or its
    manifest parameters and ``{file name: render(manifest hash) -> text}``;
    the run directory is made only once every text exists."""
    started = time.time()
    spec = _load_spec(args.config)
    result = args.func(args, spec)
    if result is None:
        return EXIT_OK
    params, renderers = result
    payload = _manifest_payload(args.command, spec, params, renderers)
    manifest_hash = hashlib.sha256(payload.encode()).hexdigest()[:16]
    texts = {name: render(manifest_hash) for name, render in renderers.items()}
    run_dir = Path(args.out) / args.command / manifest_hash
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (run_dir / name).write_text(text, encoding="utf-8")
    (run_dir / "manifest.txt").write_text(
        payload
        + f"manifest_hash = {manifest_hash}\n"
        + f"wall_clock_seconds = {time.time() - started:.3f}\n",
        encoding="utf-8",
    )
    print(run_dir)
    return EXIT_OK


def cmd_solve_full(args, spec: ModelSpec):
    from . import hjb_full

    surface = hjb_full.solve_constrained(spec, n_steps=args.steps)
    params = {"steps": args.steps}
    if args.steps is None:
        rep = surface.march
        print(
            f"steps = {rep.n_steps}, theta error estimate {rep.theta_error:.2g}, "
            f"spread error estimate {rep.spread_error:.2g}"
        )
        params = {"steps": "auto", "full_steps": rep.n_steps}
    return params, {
        "surface_full.csv": lambda h: hjb_full.surface_to_csv(surface, {"manifest": h})
    }


def cmd_solve_partial(args, spec: ModelSpec):
    from . import hjb_partial

    surface = hjb_partial.solve(
        spec, m_pi=args.mpi, m_t=args.mt, belief_gradient_scale=args.belief_gradient_scale
    )
    rep = surface.cfl_report
    print(
        f"cfl_max_coeff = {rep.max_coefficient:.6g}, steps = {rep.n_steps}, "
        f"dt in [{rep.min_dt:.3e}, {rep.max_dt:.3e}]"
    )
    params = {
        "mpi": args.mpi,
        "mt": args.mt or "auto",
        "belief_gradient_scale": args.belief_gradient_scale,
    }
    return params, {
        "surface_partial.csv": lambda h: hjb_partial.surface_to_csv(surface, {"manifest": h})
    }


def _build_policy(spec: ModelSpec, args):
    from . import hjb_full, hjb_partial, simulate

    if args.policy == "partial":
        surface = hjb_partial.solve(
            spec, m_pi=args.mpi, belief_gradient_scale=args.belief_gradient_scale
        )
        return simulate.PartialInfoPolicy(surface)
    if args.policy == "full":
        return simulate.FullInfoPolicy(hjb_full.solve_constrained(spec))
    delta = float(args.policy.removeprefix("fixed:"))  # finite, checked by argparse
    return simulate.FixedSpreadPolicy(delta, delta)


def cmd_simulate(args, spec: ModelSpec):
    from . import rng, simulate

    export = min(args.export_paths, args.paths)
    # the full-information policy quotes on the hidden regime, so its
    # orders are thinned against that regime's intensity
    policy = _build_policy(spec, args)
    summary = simulate.monte_carlo(
        spec, policy, args.paths, args.seed,
        regime_true=args.policy == "full", export_paths=export,
    )
    print(
        f"mean_pnl = {summary.mean_pnl:.6g} +- {summary.stderr:.2g} "
        f"({summary.paths} paths, fills {summary.mean_fills_bid:.2f}/{summary.mean_fills_ask:.2f})"
    )
    params = {"policy": args.policy, "paths": args.paths, "seed": args.seed, "export_paths": export}
    # the draws behind every path: a run under another stream scheme hashes apart
    params["streams"] = rng.SCHEME
    if args.policy == "partial":  # only the partial surface reads the belief grid
        params |= {"mpi": args.mpi, "belief_gradient_scale": args.belief_gradient_scale}
    if args.policy == "full":  # the count the step search chose
        params["full_steps"] = policy.surface.march.n_steps
    renderers = {
        f"path_{p:03d}.csv": _stamped(rec.to_csv()) for p, rec in enumerate(summary.records)
    }
    renderers["summary.txt"] = _stamped(summary.to_text())
    return params, renderers


def cmd_attractor(args, spec: ModelSpec):
    from . import filtering

    print(f"pi_star = {filtering.attractor(spec, beta=args.beta):.10f}")


def cmd_compare(args, spec: ModelSpec):
    from . import hjb_full, hjb_partial

    partial = hjb_partial.solve(
        spec, m_pi=args.mpi, belief_gradient_scale=args.belief_gradient_scale
    )
    full = hjb_full.solve_constrained(spec)

    beliefs = (0.0, 0.6, 1.0)
    times = np.linspace(0.0, spec.horizon_T, 201)
    buf = io.StringIO()
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

    lines = ["ask-spread excess of partial information at pi = 0.6, t = 0:"]
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
    summary = "\n".join(lines)
    print(summary)
    params = {
        "mpi": args.mpi,
        "belief_gradient_scale": args.belief_gradient_scale,
        "full_steps": full.march.n_steps,
    }
    return params, {
        "compare_ask.csv": _stamped(buf.getvalue()),
        "summary.txt": _stamped(summary + "\n"),
    }


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


def _policy_name(text: str) -> str:
    """argparse type for ``--policy``: partial, full or fixed:D with a finite
    D, returned as given (the manifest records the text)."""
    if text in ("partial", "full"):
        return text
    kind, _, value = text.partition(":")
    try:
        finite = math.isfinite(float(value))
    except ValueError:
        finite = False
    if kind != "fixed" or not finite:
        raise argparse.ArgumentTypeError(f"{text!r} is not partial, full or fixed:D with a finite D")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimemm",
        description="Optimal market-making spread policies under a hidden market regime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, about, out=True):
        p = sub.add_parser(name, help=about)
        p.add_argument("config", help="model configuration file")
        if out:
            p.add_argument("--out", default="out", help="output root directory")
        p.set_defaults(func=func)
        return p

    def add_partial_grid(p):
        p.add_argument("--mpi", type=_number_in(int, 1), default=DEFAULT_PI_CELLS)
        p.add_argument("--belief-gradient-scale", type=_number_in(float, 0.0), default=1.0)

    p = add_command("solve-full", cmd_solve_full, "solve the full-information system")
    p.add_argument(
        "--steps", type=_number_in(int, 1), default=None,
        help="RK4 time steps; by default the count that meets the error tolerance",
    )

    p = add_command("solve-partial", cmd_solve_partial, "solve the partial-information scheme")
    add_partial_grid(p)
    p.add_argument(
        "--mt", type=_steps_or_auto, default=None, help="time steps, or 'auto' for CFL-driven"
    )

    p = add_command("simulate", cmd_simulate, "Monte Carlo under a feedback policy")
    p.add_argument("--policy", type=_policy_name, required=True, help="partial | full | fixed:D")
    p.add_argument("--paths", type=_number_in(int, 1), default=1000)
    p.add_argument("--seed", type=_number_in(int, 0, 2**64 - 1), default=0)
    p.add_argument("--export-paths", type=_number_in(int, 0), default=4)
    add_partial_grid(p)

    p = add_command("attractor", cmd_attractor, "quiet-period equilibrium belief", out=False)
    p.add_argument("--beta", type=int, choices=(1, 2), required=True)

    p = add_command("compare", cmd_compare, "partial vs full information spread series")
    add_partial_grid(p)
    return parser


def _fail(error: Exception, code: int) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, UnsupportedConfigError) as exc:
        return _fail(exc, EXIT_CONFIG)
    except NumericsError as exc:
        return _fail(exc, EXIT_NUMERICS)


if __name__ == "__main__":
    sys.exit(main())
