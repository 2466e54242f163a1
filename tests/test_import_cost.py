"""No command imports the ``scipy.optimize`` package.

Group rotation and level tracking call ``zeeman.linear_sum_assignment``,
which on first use loads only scipy's compiled solver module, not the
package around it: importing ``scipy.optimize`` costs about 0.4 s and 45 MB
per CLI run.  Every command that solves no assignment, and the package
import itself, must leave scipy unloaded altogether.  No command imports
``numpy.ma`` either, which ``np.unique`` does on its first call in numpy 2.
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
}
# Steps that solve assignments, run after those above: a classification
# whose degenerate group is rotated (the fixture appends the energies file),
# then a sweep.
ASSIGNING = {
    "classify-grouped": ["classify", *DIPOS, "--scheme", "like-pairs",
                         "--energies"],
    "sweep": ["sweep", "--system", "positronium", "--bmin", "-1",
              "--bmax", "1", "--steps", "5"],
}
TIE_MATRICES = (
    # rows 0 and 1 tie on every column; the solver's own tie-break decides
    np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]),
    -np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]),
    np.zeros((2, 2)),
)

# Runs in a fresh interpreter: after the import and after each command in
# turn, records the scipy modules loaded so far and whether the solver has
# been loaded, and apart from those whether numpy.ma has been.  Then
# imports scipy.optimize, which must still work normally and hand out the
# very function the commands used.
PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

import spinzeeman, spinzeeman.cli
from spinzeeman import zeeman

def state():
    return [scipy_modules(), zeeman._solver is not None]

loaded = {"import": state()}
masked = {"import": "numpy.ma" in sys.modules}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = spinzeeman.cli.main(argv)
    loaded[name] = state() if code == 0 else f"exit {code}"
    masked[name] = "numpy.ma" in sys.modules
loaded["numpy.ma"] = masked
import scipy.optimize
loaded["after"] = {
    "has_lsap": hasattr(scipy.optimize, "_lsap"),
    "same_solver": scipy.optimize.linear_sum_assignment is zeeman._solver,
    "lsap_solver": scipy.optimize._lsap.linear_sum_assignment
                   is zeeman._solver,
}
print(json.dumps(loaded))
"""


def run_probe(probe, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    energies = tmp_path_factory.mktemp("energies") / "one_level.csv"
    energies.write_text("|2,2[2,2]⟩,1.0\n", encoding="utf-8")
    steps = {**STEPS, **ASSIGNING}
    steps["classify-grouped"] = [*steps["classify-grouped"], str(energies)]
    return run_probe(PROBE, json.dumps(steps))


@pytest.mark.parametrize("step", ["import", *STEPS])
def test_step_leaves_scipy_unloaded(loaded, step):
    assert loaded[step] == [[], False]


@pytest.mark.parametrize("step", list(ASSIGNING))
def test_assigning_step_leaves_scipy_optimize_unloaded(loaded, step):
    assert isinstance(loaded[step], list), loaded[step]
    modules, solver_loaded = loaded[step]
    assert solver_loaded
    assert not [k for k in modules
                if k == "scipy.optimize" or k.startswith("scipy.optimize.")]


@pytest.mark.parametrize("step", ["import", *STEPS, *ASSIGNING])
def test_step_leaves_numpy_ma_unloaded(loaded, step):
    assert isinstance(loaded[step], list), loaded[step]
    assert loaded["numpy.ma"][step] is False


def test_scipy_optimize_imports_normally_after_the_solver(loaded):
    assert loaded["after"] == {
        "has_lsap": True, "same_solver": True, "lsap_solver": True}


def test_deferred_solver_matches_scipy():
    for matrix in TIE_MATRICES:
        rows, cols = zeeman.linear_sum_assignment(matrix)
        ref_rows, ref_cols = linear_sum_assignment(matrix)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)


def test_solver_reuses_an_imported_scipy_optimize(monkeypatch):
    # this process has imported scipy.optimize; its modules stay as they are
    import scipy.optimize._lsap as lsap

    monkeypatch.setattr(zeeman, "_solver", None)
    zeeman.linear_sum_assignment(np.zeros((1, 1)))
    assert sys.modules.get("scipy.optimize._lsap") is lsap
    assert zeeman._solver is linear_sum_assignment


# Makes the first solver call from two threads at once in a fresh
# interpreter.  Each load is counted and held open long enough for the other
# thread's call to arrive while it runs.
PARALLEL_PROBE = """
import json, sys, threading, time
import numpy as np
from spinzeeman import zeeman

loads = []
load = zeeman._load_solver

def counted():
    loads.append(threading.current_thread().name)
    time.sleep(0.2)
    return load()

zeeman._load_solver = counted
start = threading.Barrier(2)
solved = []

def first_call():
    start.wait(timeout=60)
    solved.append([a.tolist() for a in zeeman.linear_sum_assignment(
        np.array([[1.0, 0.0], [0.0, 1.0]]))])

callers = [threading.Thread(target=first_call) for _ in range(2)]
for caller in callers:
    caller.start()
for caller in callers:
    caller.join(timeout=60)
print(json.dumps({
    "alive": [caller.is_alive() for caller in callers],
    "loads": len(loads),
    "solved": solved,
    "optimize": sorted(k for k in sys.modules if k == "scipy.optimize"
                       or k.startswith("scipy.optimize.")),
}))
"""


def test_overlapping_first_calls_load_the_solver_once():
    found = run_probe(PARALLEL_PROBE)
    assert found["alive"] == [False, False]
    assert found["loads"] == 1
    assert found["solved"] == [[[0, 1], [1, 0]]] * 2
    assert found["optimize"] == []


# Solves TIE_MATRICES in a fresh interpreter whose extension lookup finds
# nothing, as on a scipy that ships the solver module as Python.
FALLBACK_PROBE = """
import json, sys
import numpy as np
from spinzeeman import zeeman
zeeman._lsap_path = lambda: None
out = [[a.tolist() for a in zeeman.linear_sum_assignment(np.array(m))]
       for m in json.loads(sys.argv[1])]
print(json.dumps({"solved": out, "optimize": "scipy.optimize" in sys.modules}))
"""


def test_fallback_without_the_compiled_module_matches():
    found = run_probe(FALLBACK_PROBE,
                      json.dumps([m.tolist() for m in TIE_MATRICES]))
    assert found["optimize"]  # the public import ran
    for matrix, (rows, cols) in zip(TIE_MATRICES, found["solved"]):
        ref_rows, ref_cols = linear_sum_assignment(matrix)
        assert rows == ref_rows.tolist()
        assert cols == ref_cols.tolist()
