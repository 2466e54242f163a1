"""scipy is imported only by the commands that solve an assignment.

Group rotation and level tracking call ``zeeman.linear_sum_assignment``,
which imports scipy's solver on first use.  Every other command, and the
package import itself, must leave scipy unloaded: importing it costs about
half a second per CLI run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spinzeeman import zeeman

SRC = Path(__file__).resolve().parents[1] / "src"

DIPOS = ["--system", "dipositronium"]
STEPS = {
    "basis": ["basis", *DIPOS, "--m", "1"],
    "moment": ["moment", *DIPOS, "--scheme", "positronium-pairs"],
    "exchange": ["exchange", *DIPOS],
    "overlap": ["overlap", *DIPOS, "--scheme2", "positronium-pairs"],
    "classify-like": ["classify", *DIPOS, "--scheme", "like-pairs"],
    "classify-pairs": ["classify", *DIPOS, "--scheme", "positronium-pairs"],
    "sweep": ["sweep", "--system", "positronium", "--bmin", "-1",
              "--bmax", "1", "--steps", "5"],
}

# Runs in a fresh interpreter: after the import and after each command in
# turn, records the scipy modules loaded so far.
PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

import spinzeeman, spinzeeman.cli
loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = spinzeeman.cli.main(argv)
    loaded[name] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(STEPS)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(run.stdout)


@pytest.mark.parametrize("step", ["import", *list(STEPS)[:-1]])
def test_step_leaves_scipy_unloaded(loaded, step):
    assert loaded[step] == []


def test_sweep_loads_scipy_optimize(loaded):
    assert "scipy.optimize" in loaded["sweep"]


def test_deferred_solver_matches_scipy():
    # rows 0 and 1 tie on every column; the solver's own tie-break decides
    cost = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    for matrix in (cost, -cost, np.zeros((2, 2))):
        rows, cols = zeeman.linear_sum_assignment(matrix)
        ref_rows, ref_cols = linear_sum_assignment(matrix)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)
