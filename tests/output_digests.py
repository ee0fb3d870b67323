"""Print one sha256 per output body of the canonical CLI commands.

Runs ``solve-full`` (default, ``--steps 400`` and ``--steps 2000``, the
default step count before the step search), ``solve-partial --mpi 200``,
``compare --mpi 200``, ``simulate --policy partial|full|fixed:0.04 --seed 7``
and ``attractor --beta 1|2`` on every config in ``configs/``, on the
benchmark's gamma = 0.5 logistic market ``perfbench/logistic.cfg`` (read
only) and on table1 with ``drift_mu = 0.05``, into a temporary directory.
The shipped markets have no drift, so their partial solves march half the
inventory rows and mirror the rest; the drifting market, whose config
``format_config`` writes into the temporary directory, is the one whose
partial solve marches every row.  Each written file is one body, and so
is each command's exit code with its standard output and error, and each
surface file also gets a line for the arrays that its
``surface_from_csv`` reads back, so a change to the reader shows even
where the files keep their bytes.  The
manifest's ``wall_clock_seconds`` line and the temporary directory's name
are dropped first, so two source trees that produce the same outputs
print the same lines.  The regimemm package is imported from ``sys.path``, so
``PYTHONPATH`` picks the tree under test:

    PYTHONPATH=src python tests/output_digests.py

Compare the tree under test against another source tree, such as a
checkout of the parent commit, with

    PYTHONPATH=src python tests/output_digests.py --parent ../parent/src

which runs the same commands on both trees, the other one in a subprocess
with its own ``PYTHONPATH``, matches the lines by label, prints each line
that differs or that only one tree prints (a command that exits early
writes fewer files) and exits 1 on any difference.  Under a differing
read-back line it also prints the largest absolute difference of theta
and of each spread between the two trees' surfaces, looked up at the
nodes of both grids, so it also measures a change of the time or belief
grid.  Not a pytest module: it runs for tens of seconds.
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from regimemm import cli, hjb_full, hjb_partial
from regimemm.model import format_config, table1_spec

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) + [ROOT / "perfbench" / "logistic.cfg"]

COMMANDS = (
    ["solve-full"],
    ["solve-full", "--steps", "400"],
    ["solve-full", "--steps", "2000"],
    ["solve-partial", "--mpi", "200"],
    ["compare", "--mpi", "200"],
    ["simulate", "--policy", "partial", "--seed", "7"],
    ["simulate", "--policy", "full", "--seed", "7"],
    ["simulate", "--policy", "fixed:0.04", "--seed", "7"],
    ["attractor", "--beta", "1"],
    ["attractor", "--beta", "2"],
)


READERS = {"surface_full.csv": hjb_full, "surface_partial.csv": hjb_partial}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


TABLES = ("theta", "spread_bid", "spread_ask")


def _read_back_digest(module, text: str, keep: Path | None = None) -> str:
    """sha256 of the spec and of the time grid, belief axis (partial
    surfaces) and tables that ``module.surface_from_csv`` reads from
    ``text``: each array's shape, then its bytes.  With ``keep`` the
    surface file is also saved there."""
    surface = module.surface_from_csv(text)
    h = hashlib.sha256(format_config(surface.spec).encode())
    for name in ("time_grid", "pi_grid", *TABLES):
        if hasattr(surface, name):
            array = np.ascontiguousarray(getattr(surface, name))
            h.update(repr(array.shape).encode())
            h.update(array.tobytes())
    if keep is not None:
        keep.write_text(text, encoding="utf-8")
    return h.hexdigest()


def _kept_file(kept: Path, label: str) -> Path:
    return kept / f"{_digest(label)[:16]}.csv"


def _nodes(surface):
    """The nodes (t, n, x) of a surface's grid as broadcast arrays; x is a
    partial surface's belief and a full surface's 1-based regime."""
    third = getattr(surface, "pi_grid", None)
    if third is None:
        third = np.arange(1, surface.spec.n_regimes + 1)
    return surface.time_grid[:, None, None], surface.spec.inventory_levels()[:, None], third


def largest_differences(module, ours: Path, theirs: Path) -> str:
    """``name max|a - b|`` of theta, the bid and the ask between the two
    surface files, both read by ``module`` and looked up through its
    ``theta_at`` and ``policy`` at the nodes of both grids, so surfaces on
    different time or belief grids compare too (equal stubs count as
    equal)."""
    a, b = (module.surface_from_csv(path.read_text(encoding="utf-8")) for path in (ours, theirs))
    gaps = dict.fromkeys(TABLES, 0.0)
    for points in (_nodes(a), _nodes(b)):
        values = [(s.theta_at(*points), *module.policy(s, *points)) for s in (a, b)]
        for name, x, y in zip(TABLES, *values):
            with np.errstate(invalid="ignore"):  # stub - stub, masked out
                gaps[name] = max(gaps[name], np.max(np.abs(x - y), where=x != y, initial=0.0))
    text = ", ".join(f"{name} {gap:.3g}" for name, gap in gaps.items())
    if a.theta.shape != b.theta.shape:
        text += f" (theta shape {b.theta.shape} -> {a.theta.shape})"
    return "largest |difference| at both grids' nodes: " + text


def configs(tmp: Path):
    """(name, path) of every config the commands run on; the drifting
    market's file is written into ``tmp``."""
    for config in CONFIGS:
        yield str(config.relative_to(ROOT)), config
    drifting = tmp / "table1_drift.cfg"
    drifting.write_text(format_config(table1_spec(drift_mu=0.05)), encoding="utf-8")
    yield "table1 with drift_mu = 0.05", drifting


def digests(name: str, config: Path, out: Path, kept: Path | None = None):
    """(label, sha256) of every output body of ``COMMANDS`` on ``config``,
    labelled by ``name``; with ``kept`` each read-back surface file is
    saved there."""
    for command in COMMANDS:
        argv = [command[0], str(config), *command[1:]]
        if command[0] != "attractor":
            argv += ["--out", str(out)]
        label = f"{name} {' '.join(command)}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        printed = stdout.getvalue()
        console = f"exit {code}\n{printed}{stderr.getvalue()}".replace(str(out), "OUT")
        yield f"{label} | console", _digest(console)
        if code != 0 or command[0] == "attractor":
            continue
        run_dir = Path(printed.strip().splitlines()[-1])
        for path in sorted(run_dir.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.name == "manifest.txt":
                text = "".join(
                    line for line in text.splitlines(keepends=True)
                    if not line.startswith("wall_clock_seconds")
                )
            yield f"{label} | {path.name}", _digest(text)
            if path.name in READERS:
                read_label = f"{label} | {path.name} read back"
                keep = None if kept is None else _kept_file(kept, read_label)
                yield read_label, _read_back_digest(READERS[path.name], text, keep)


def lines(kept: Path | None = None):
    """Every output line, ``<sha256>  <label>``, of ``COMMANDS`` on every config."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs(Path(tmp)):
            for label, digest in digests(name, config, Path(tmp), kept):
                yield f"{digest}  {label}"


def compare(parent_src: str) -> int:
    """Prints the lines that differ between the tree under test and the
    tree at ``parent_src``, matched by label, with the largest surface
    differences under a read-back line, and the lines only one tree
    prints; 1 if any line differs."""
    env = dict(os.environ, PYTHONPATH=str(Path(parent_src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours"), Path(tmp, "theirs")
        ours.mkdir()
        theirs.mkdir()
        parent = subprocess.Popen(
            [sys.executable, __file__, "--keep", str(theirs)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        change = list(lines(ours))
        parent_out = parent.communicate()[0].splitlines()
        if parent.returncode != 0:
            print(f"the run on {parent_src} exited {parent.returncode}")
            return 1
        old = {line.split("  ", 1)[1]: line for line in parent_out}
        identical = 0
        for new in change:
            label = new.split("  ", 1)[1]
            prev = old.pop(label, None)
            if prev == new:
                identical += 1
            elif prev is None:
                print(f"+ {new}  (only here)")
            else:
                print(f"- {prev}\n+ {new}")
                if label.endswith("read back"):
                    module = READERS[label.split(" | ")[1].removesuffix(" read back")]
                    print("  " + largest_differences(module, _kept_file(ours, label), _kept_file(theirs, label)))
    for line in old.values():
        print(f"- {line}  (only on {parent_src})")
    print(f"{identical} of {len(change)} lines identical, {len(old)} only on {parent_src}")
    return 0 if identical == len(change) and not old else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="SRC", help="source tree to compare against")
    parser.add_argument("--keep", metavar="DIR", type=Path, help="also save each read-back surface file in DIR")
    args = parser.parse_args()
    if args.parent is not None:
        return compare(args.parent)
    for line in lines(args.keep):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
