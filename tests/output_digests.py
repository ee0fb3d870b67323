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
with its own ``PYTHONPATH``, prints each line that differs and exits 1 on
any difference.  Under a differing read-back line it also prints the
largest absolute difference of each table (theta, spread_bid, spread_ask)
between the two trees' surfaces.  Not a pytest module: it runs for tens of
seconds.
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
    tables are also saved there."""
    surface = module.surface_from_csv(text)
    h = hashlib.sha256(format_config(surface.spec).encode())
    for name in ("time_grid", "pi_grid", *TABLES):
        if hasattr(surface, name):
            array = np.ascontiguousarray(getattr(surface, name))
            h.update(repr(array.shape).encode())
            h.update(array.tobytes())
    if keep is not None:
        np.savez(keep, **{name: getattr(surface, name) for name in TABLES})
    return h.hexdigest()


def _tables_file(tables: Path, label: str) -> Path:
    return tables / f"{_digest(label)[:16]}.npz"


def largest_differences(ours: Path, theirs: Path) -> str:
    """``name max|a - b|`` of each saved table, where the two differ
    (equal stubs count as equal)."""
    with np.load(ours) as a, np.load(theirs) as b:
        parts = []
        for name in TABLES:
            x, y = a[name], b[name]
            if x.shape != y.shape:
                parts.append(f"{name} shape {y.shape} -> {x.shape}")
            else:
                with np.errstate(invalid="ignore"):  # stub - stub, masked out
                    gap = np.max(np.abs(x - y), where=x != y, initial=0.0)
                parts.append(f"{name} {gap:.3g}")
    return "largest |difference|: " + ", ".join(parts)


def configs(tmp: Path):
    """(name, path) of every config the commands run on; the drifting
    market's file is written into ``tmp``."""
    for config in CONFIGS:
        yield str(config.relative_to(ROOT)), config
    drifting = tmp / "table1_drift.cfg"
    drifting.write_text(format_config(table1_spec(drift_mu=0.05)), encoding="utf-8")
    yield "table1 with drift_mu = 0.05", drifting


def digests(name: str, config: Path, out: Path, tables: Path | None = None):
    """(label, sha256) of every output body of ``COMMANDS`` on ``config``,
    labelled by ``name``; with ``tables`` each read-back surface's tables
    are saved there."""
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
                keep = None if tables is None else _tables_file(tables, read_label)
                yield read_label, _read_back_digest(READERS[path.name], text, keep)


def lines(tables: Path | None = None):
    """Every output line, ``<sha256>  <label>``, of ``COMMANDS`` on every config."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs(Path(tmp)):
            for label, digest in digests(name, config, Path(tmp), tables):
                yield f"{digest}  {label}"


def compare(parent_src: str) -> int:
    """Prints the lines that differ between the tree under test and the
    tree at ``parent_src``, with the largest table differences under a
    read-back line; 1 if any line differs."""
    env = dict(os.environ, PYTHONPATH=str(Path(parent_src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours"), Path(tmp, "theirs")
        ours.mkdir()
        theirs.mkdir()
        parent = subprocess.Popen(
            [sys.executable, __file__, "--tables", str(theirs)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        change = list(lines(ours))
        parent_out = parent.communicate()[0].splitlines()
        if parent.returncode != 0:
            print(f"the run on {parent_src} exited {parent.returncode}")
            return 1
        differ = 0
        for old, new in zip(parent_out, change):
            if old != new:
                differ += 1
                print(f"- {old}\n+ {new}")
                label = new.split("  ", 1)[1]
                if label.endswith("read back"):
                    print("  " + largest_differences(_tables_file(ours, label), _tables_file(theirs, label)))
    if len(parent_out) != len(change):
        differ += 1
        print(f"{len(parent_out)} lines on {parent_src}, {len(change)} here")
    print(f"{len(change) - differ} of {len(change)} lines identical")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="SRC", help="source tree to compare against")
    parser.add_argument("--tables", metavar="DIR", type=Path, help="also save each read-back surface's tables in DIR")
    args = parser.parse_args()
    if args.parent is not None:
        return compare(args.parent)
    for line in lines(args.tables):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
