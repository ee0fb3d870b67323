"""The package's public names: everything ``__all__`` lists is importable,
and the README's library quick start runs."""

import re
from pathlib import Path

import regimemm

README = Path(__file__).resolve().parent.parent / "README.md"


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
