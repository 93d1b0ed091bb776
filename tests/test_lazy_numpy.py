"""numpy is loaded only where arrays are made.

Each check runs ``gls`` commands through ``glshift.cli.main`` in a fresh
interpreter, because this test process has numpy loaded already.  The
fresh runs must print exactly what the same commands print in process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from glshift.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: a JSON list of gls argument lists; prints, as JSON, whether the
# imports loaded numpy and, per command, its exit code, stdout, stderr
# and whether numpy was loaded after it ran
RUNNER = """
import contextlib, io, json, sys
import glshift
import glshift.cli
imported = "numpy" in sys.modules
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = glshift.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps({"imported": imported, "results": results}))
"""


def fresh_main(argvs: list[list[str]]) -> tuple[bool, list]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    report = json.loads(proc.stdout)
    return report["imported"], report["results"]


def in_process(capsys, argv: list[str]) -> list:
    code = main(argv)
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


def test_evaluate_and_growth_never_load_numpy(capsys):
    argvs = [
        ["evaluate", "table2_s1", "--csv"],
        ["evaluate", "table2_s1"],
        ["evaluate", "table1_wind", "--csv", "--precision", "full"],
        ["growth", "--reduction", "0.3", "--growth", "0.1"],
        # both caps are checked before any array is made
        ["oracle", "--steps", "1000000000000000"],
        ["sweep", "table2_s1", "--variants", "full,full"],
    ]
    imported, results = fresh_main(argvs)
    assert not imported
    for argv, (code, out, err, numpy_loaded) in zip(argvs, results):
        assert not numpy_loaded, argv
        assert [code, out, err] == in_process(capsys, argv), argv


def test_sweep_and_oracle_load_numpy_on_first_use(capsys):
    argvs = [
        ["sweep", "table2_s1", "--kink"],
        ["oracle"],
        ["oracle", "--correlated"],
    ]
    imported, results = fresh_main(argvs)
    assert not imported
    for argv, (code, out, err, numpy_loaded) in zip(argvs, results):
        assert numpy_loaded, argv
        assert [code, out, err] == in_process(capsys, argv), argv
