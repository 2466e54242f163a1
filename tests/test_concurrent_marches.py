"""The two field marches of ``level_curves`` run at once.

The march up from B = 0 runs on a worker thread while the caller runs the
march down.  A failure on either side reaches the caller, no thread is left
running afterwards, and calls made from several threads at once give the
single call's result bit for bit.
"""

import sys
import threading

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    couple,
    full_transform,
    level_curves,
    moment_matrix,
)
from spinzeeman.cli import main

# The CLI's ``sweep --system positronium`` solves this basis.
POSITRONIUM = SpinSystem.positronium()
MATRIX = moment_matrix(full_transform(
    couple(POSITRONIUM, CouplingTree.positronium_pairs(POSITRONIUM))))
GRID = np.linspace(-1.0, 1.0, 5)


def _off_diagonal_sum(stack):
    real = np.asarray(stack).real
    return real.sum() - np.trace(real, axis1=-2, axis2=-1).sum()


# The solved stacks hold -B mu0 times the moment off the diagonal, however
# the sectors are packed, so the sign of their off-diagonal sum against the
# moment's tells the sign of B (positronium's M = 0 couplings share a sign).
MOMENT_SUM = _off_diagonal_sum(MATRIX.entries)


def _failing_eigh(monkeypatch, side, error):
    """Make ``np.linalg.eigh`` raise ``error`` on a stack solved at a field
    of sign ``side``, and solve every other stack as before."""
    eigh = np.linalg.eigh

    def failing(stack):
        if np.sign(-_off_diagonal_sum(stack) * MOMENT_SUM) == side:
            raise error
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", failing)


@pytest.mark.parametrize("side", [1, -1], ids=["worker", "caller"])
@pytest.mark.parametrize("kind", [np.linalg.LinAlgError, MemoryError])
def test_a_failing_march_raises_to_the_caller(monkeypatch, kind, side):
    threads = threading.active_count()
    error = kind("solve failed")
    _failing_eigh(monkeypatch, side, error)
    with pytest.raises(kind) as raised:
        level_curves(MATRIX, DegeneracySpec.isolated(4), GRID)
    assert raised.value is error
    assert threading.active_count() == threads


def test_cli_sweep_reports_a_worker_memory_error_once(monkeypatch, capsys):
    threads = threading.active_count()
    _failing_eigh(monkeypatch, 1, MemoryError("no room for the stack"))
    code = main(["sweep", "--system", "positronium", "--bmin", "-1",
                 "--bmax", "1", "--steps", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: no room for the stack\n"
    assert threading.active_count() == threads


def test_calls_from_several_threads_match_a_single_call():
    # dipositronium, like pairs: degenerate curves, so flags to compare
    system = SpinSystem.dipositronium()
    matrix = moment_matrix(full_transform(
        couple(system, CouplingTree.like_pairs(system))))
    spec = DegeneracySpec.isolated(matrix.size)
    grid = np.linspace(-2.0, 2.0, 41)
    single = level_curves(matrix, spec, grid)
    assert single.flagged
    threads = threading.active_count()
    start = threading.Barrier(2)
    results = []

    def call():
        start.wait(timeout=60)
        results.append(level_curves(matrix, spec, grid))

    # two callers, each with its own worker: more threads than the two
    # cores of a small machine, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == len(callers)
    for curves in results:
        assert np.array_equal(curves.energies, single.energies)
        assert curves.flagged == single.flagged
    assert threading.active_count() == threads
