"""The package root loads a module only when one of its names is used.

Each import runs in a fresh interpreter, because this test process has
every module loaded already.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glshift

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ["glshift.model", "glshift.scenario", "glshift.sweeps", "glshift.trace"]

# prints, as JSON, the glshift modules that the import loaded and whether
# numpy is among the loaded modules
RUNNER = """
import json, sys
{}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "glshift"),
                  "numpy" in sys.modules]))
"""


def fresh_json(code: str):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return json.loads(proc.stdout)


def fresh_import(statement: str) -> tuple[list[str], bool]:
    modules, numpy_loaded = fresh_json(RUNNER.format(statement))
    return modules, numpy_loaded


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import glshift", ["glshift"]),
        ("import glshift.sweeps", ["glshift", "glshift.model", "glshift.sweeps"]),
        ("import glshift.trace", ["glshift", "glshift.model", "glshift.trace"]),
        ("import glshift.scenario", ["glshift", "glshift.model", "glshift.scenario"]),
        # the cli module imports every layer's names at module level
        ("import glshift.cli", ["glshift", "glshift.cli", *LAYERS]),
        ("from glshift import run_sweep", ["glshift", "glshift.model", "glshift.sweeps"]),
    ],
)
def test_import_loads_only_what_it_names(statement, loaded):
    assert fresh_import(statement) == (loaded, False)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from glshift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(glshift.__all__)


def test_dir_lists_the_lazy_names():
    """Before any name is used, as this process has used them all."""
    names = fresh_json("import glshift, json; print(json.dumps(dir(glshift)))")
    assert set(glshift.__all__) <= set(names)


def readme_table() -> list[tuple[str, str]]:
    """(module, name) for each name of README's "Python API" table."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `glshift.")]
    return [(row[1].strip(" `"), name) for row in rows for name in re.findall(r"`(\w+)`", row[2])]


@pytest.mark.parametrize("module,name", readme_table())
def test_name_is_its_module_attribute(module, name):
    assert getattr(glshift, name) is getattr(importlib.import_module(module), name)


def test_submodule_after_bare_import():
    modules, _ = fresh_import("import glshift; glshift.sweeps.run_sweep")
    assert modules == ["glshift", "glshift.model", "glshift.sweeps"]


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'glshift' has no attribute 'nope'$"):
        glshift.nope  # noqa: B018
