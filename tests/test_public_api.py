"""The package's public names: everything ``__all__`` lists is importable,
the README's library quick start runs, and ``import regimemm`` loads only
what reading a config needs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regimemm

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"
TABLE1 = str(ROOT / "configs" / "table1.cfg")


def test_every_name_in_all_resolves():
    missing = [name for name in regimemm.__all__ if not hasattr(regimemm, name)]
    assert missing == []
    assert len(set(regimemm.__all__)) == len(regimemm.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from regimemm import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(regimemm.__all__)


def test_readme_library_quick_start_runs():
    # a public name removed from the code but left in the README fails here
    section = README.read_text().split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


# run in a fresh process: what ``import regimemm`` and reading a config
# load, then where each public name resolves from
STARTUP = """
import importlib, json, sys
import regimemm
from regimemm.model import load_config, validate
problems = validate(load_config(sys.argv[1]))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "regimemm")
owners = {}
for name in regimemm.__all__:
    value = getattr(regimemm, name)
    owner = getattr(value, "__module__", "regimemm.intensity")  # STUB_SPREAD, a float, is intensity's
    owners[name] = [owner, getattr(importlib.import_module(owner), name) is value]
try:
    regimemm.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "problems": problems,
    "loaded": loaded,
    "owners": owners,
    "dir_missing": sorted(set(regimemm.__all__) - set(dir(regimemm))),
    "submodule": regimemm.hjb_partial is importlib.import_module("regimemm.hjb_partial"),
    "unknown": unknown,
}))
"""

# a CLI command in a fresh process, then the regimemm modules it loaded
COMMAND = """
import json, sys
from regimemm import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "regimemm")))
sys.exit(code)
"""


def run_fresh(code, *args):
    """The last line of stdout of ``code`` run with ``args`` in a fresh
    interpreter that imports regimemm from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_only_what_reading_a_config_needs():
    # it pins which modules load, not how long they take
    report = run_fresh(STARTUP, TABLE1)
    assert report["problems"] == []
    assert report["loaded"] == ["regimemm", "regimemm.errors", "regimemm.intensity", "regimemm.model"]
    assert sorted(report["owners"]) == sorted(regimemm.__all__)
    for name, (owner, same) in report["owners"].items():
        assert owner.startswith("regimemm.") and same, (name, owner)
    assert report["dir_missing"] == []
    assert report["submodule"] is True
    assert report["unknown"] == "module 'regimemm' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "argv, solver",
    [(["attractor", TABLE1, "--beta", "1"], "filtering"), (["solve-full", TABLE1, "--steps", "400"], "hjb_full")],
    ids=["attractor", "solve-full"],
)
def test_a_command_loads_only_what_it_runs(argv, solver, tmp_path):
    # the simulator and the other solver stay unloaded
    if "--steps" in argv:
        argv = argv + ["--out", str(tmp_path)]
    loaded = run_fresh(COMMAND, *argv)
    shared = ["cli", "errors", "grid", "intensity", "model"]
    assert loaded == ["regimemm"] + sorted(f"regimemm.{name}" for name in shared + [solver])
