"""Storage error of the partial surface's stored time grid, by rule.

For a config and a list of belief resolutions m_pi, compares the uniform
rule, 1 + ceil(20 sqrt(m_pi)) levels evenly over [0, T], with the graded
rule of ``hjb_partial.output_times``, and with that rule's levels graded by
any other power p given as ``--power``.  For each m_pi it marches the
partial scheme at m_pi and at 2 m_pi (``oracles.march_levels``, two levels
held at a time) and scores 20 000 random lookups (t, n, pi) as each march
passes their time: the values a surface that kept every level would give.
The m_pi march also fills, level pair by level pair, the tables each rule
stores, which are the ``solve`` tables of that rule.  A rule's storage
error is its worst lookup difference from the all-levels m_pi values, for
theta and for each quoted spread, as a fraction of that quantity's worst
difference between the m_pi and 2 m_pi all-levels values; the ratio
printed is the largest of the three:

    PYTHONPATH=src python tests/output_grid_study.py configs/table1.cfg --mpi 10 25 50
    PYTHONPATH=src python tests/output_grid_study.py configs/table1.cfg --set drift_mu=0.05 --power 2

No march keeps every level, so m_pi = 800 runs in about 170 MB.  Not a
pytest module: the m_pi = 800 row takes about 10 s.
"""

import argparse
import math
import time

import numpy as np
from oracles import march_levels

from regimemm.hjb_partial import PartialInfoSurface, output_levels, output_times, policy
from regimemm.model import load_config, with_params


def rules(powers=()):
    """{name: times(T, m_pi)} of the uniform rule, the graded rule and the
    graded rule's levels at each of ``powers``."""
    out = {
        "uniform": lambda T, m_pi: np.linspace(0.0, T, 1 + math.ceil(20.0 * math.sqrt(m_pi))),
        "graded": output_times,
    }
    for p in powers:
        out[f"p={p:g}"] = lambda T, m_pi, p=p: T * (1.0 - np.linspace(1.0, 0.0, output_levels(m_pi)) ** p)
    return out


def random_points(spec, count, seed):
    """``count`` random lookups (t, n, pi) over the spec's domain, sorted by t."""
    rng = np.random.default_rng(seed)
    n_star = int(spec.inventory_cap_Nstar)
    t = np.sort(rng.uniform(0.0, spec.horizon_T, count))
    return t, rng.integers(-n_star, n_star + 1, count), rng.uniform(0.0, 1.0, count)


def lookups(surface, t, n, pi):
    """(theta, bid, ask) of ``surface`` at broadcast (t, n, pi), stacked."""
    return np.stack([surface.theta_at(t, n, pi), *policy(surface, t, n, pi)])


def march_values(spec, m_pi, points, stored_times=()):
    """The all-levels lookups at ``points`` (their times ascending) and, for
    each ascending array of ``stored_times``, the (theta, bid, ask) tables
    stored at those times, from one march that holds two levels."""
    t_points = points[0]
    levels = spec.inventory_levels()[:, None]
    pi_grid = np.linspace(0.0, 1.0, m_pi + 1)
    values = np.empty((3, len(t_points)))
    tables = [np.empty((3, len(times), len(levels), m_pi + 1)) for times in stored_times]
    # each pair [t, t_up] scores the points and stored times in it not yet
    # scored: those from index searchsorted(t) up to the last pair's start
    point_top = len(t_points)
    stored_tops = [len(times) for times in stored_times]
    upper = None
    for lower in march_levels(spec, m_pi):
        if upper is not None:
            (t_up, *upper_tables, _), (t, *lower_tables, _) = upper, lower
            pair = PartialInfoSurface(
                spec, np.array([t, t_up]), pi_grid,
                *(np.stack([a, b]) for a, b in zip(lower_tables, upper_tables)), None,
            )
            start = np.searchsorted(t_points, t)
            chosen = slice(start, point_top)
            values[:, chosen] = lookups(pair, *(axis[chosen] for axis in points))
            point_top = start
            for k, times in enumerate(stored_times):
                start = np.searchsorted(times, t)
                chosen = slice(start, stored_tops[k])
                tables[k][:, chosen] = lookups(pair, times[chosen, None, None], levels, pi_grid)
                stored_tops[k] = start
        upper = lower
    return values, tables


def worst(a, b):
    """max |a - b| of theta and of each quoted spread (stubs match)."""
    with np.errstate(invalid="ignore"):  # stub - stub, masked out
        return np.max(np.abs(a - b), axis=1, where=np.isfinite(a), initial=0.0)


def study(spec, m_pi, named_rules):
    """(theta's gap, {rule: (levels, ratio)}) at one m_pi."""
    points = random_points(spec, 20_000, seed=7)
    times = [rule(spec.horizon_T, m_pi) for rule in named_rules.values()]
    coarse, tables = march_values(spec, m_pi, points, times)
    fine, _ = march_values(spec, 2 * m_pi, points)
    gap = worst(coarse, fine)
    pi_grid = np.linspace(0.0, 1.0, m_pi + 1)
    ratios = {}
    for name, grid, stored in zip(named_rules, times, tables):
        surface = PartialInfoSurface(spec, grid, pi_grid, *stored, None)
        ratios[name] = (len(grid), float(np.max(worst(lookups(surface, *points), coarse) / gap)))
    return gap[0], ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="model configuration file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a numeric spec field, such as drift_mu=0.05",
    )
    parser.add_argument("--mpi", type=int, nargs="+", default=[10, 25, 50, 100, 200, 400, 800])
    parser.add_argument(
        "--power", type=float, action="append", default=[],
        help="also grade the rule's levels by this power",
    )
    args = parser.parse_args()
    named_rules = rules(args.power)
    spec = load_config(args.config)
    for item in args.set:
        key, _, value = item.partition("=")
        spec = with_params(spec, **{key.strip(): float(value)})
    print(f"# {args.config} {' '.join(args.set)}".rstrip())
    print("m_pi  theta gap  " + "  ".join(f"{name} levels  ratio" for name in named_rules) + "  seconds")
    for m_pi in args.mpi:
        started = time.perf_counter()
        gap, ratios = study(spec, m_pi, named_rules)
        cells = "  ".join(f"{levels:>{len(name) + 7}d}  {ratio:.3f}" for name, (levels, ratio) in ratios.items())
        print(f"{m_pi:<5d} {gap:.3e}  {cells}  {time.perf_counter() - started:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
