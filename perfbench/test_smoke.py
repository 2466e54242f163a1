"""Smoke test of the benchmark's own code paths on small inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
import workloads
from spinzeeman import Classification, DegeneracySpec, classify
from spinzeeman import CouplingTree, SpinSystem, couple, full_transform
from spinzeeman import moment_matrix

ROOT = Path(__file__).resolve().parent.parent


def _run_all(tasks, tracer=None):
    results = [run.run_task(task, tracer) for task in tasks]
    for result in results:
        assert result.errors == [], (result.name, result.errors)
    return results


def test_census_small_passes_its_oracles_for_two_site_orders():
    census = []
    for seed in (0, 1):
        species = workloads.species_order(4, seed)
        tasks = workloads.census_tasks(species)
        outputs = [task.run() for task in tasks]
        for task, output in zip(tasks, outputs):
            assert task.check(output) == []
        census.append([oracles.census_reference(out) for out in outputs])
    assert census[0] == census[1]


def test_sweep_small_matches_the_product_spectrum():
    species = workloads.species_order(4, 3)
    grid = np.linspace(-1.0, 1.0, 3)
    _run_all(workloads.sweep_tasks(species, grid))


def test_sweep_oracle_rejects_a_wrong_row():
    species = workloads.species_order(4, 3)
    grid = np.linspace(-1.0, 1.0, 3)
    task = workloads.sweep_tasks(species, grid)[0]
    curves = task.run()
    curves.energies[0, 0] += 1e-6
    assert task.check(curves)


def test_one_cli_run_matches_reference_and_golden():
    tasks, runner = workloads.build("cli", 0, ROOT)
    task = next(t for t in tasks if t.name == "like-classify-table")
    assert task.check(task.run()) == []
    assert runner.child_peak_kb > 0


def test_dipositronium_census_is_4_7_5_with_slopes_2mu0():
    mu0 = 1.0
    system = SpinSystem.dipositronium(mu0)
    states = couple(system, CouplingTree.like_pairs(system))
    report = classify(moment_matrix(full_transform(states)),
                      DegeneracySpec.isolated(len(states)))
    assert oracles.census_counts(report) == {
        "LINEAR": 4, "QUADRATIC": 7, "NONE": 5}
    slopes = sorted(s.linear_slope for s in report.states
                    if s.classification is Classification.LINEAR)
    assert slopes == pytest.approx([-2 * mu0, -2 * mu0, 2 * mu0, 2 * mu0])


def test_traced_pass_counts_calls_and_self_time():
    tracer = spans.Tracer()
    tasks = workloads.sweep_tasks(workloads.species_order(4, 0),
                                  np.linspace(-1.0, 1.0, 3))
    with tracer.installed():
        _run_all(tasks, tracer)
    metrics = tracer.layer_metrics(0)
    assert metrics["zeeman.eigh.calls"] == 2 * 2  # two trees, two B != 0
    assert metrics["coupling.states"] == 2 * 16
    assert metrics["cg.cg_coefficient.calls"] > 0
    assert 0 < metrics["zeeman.level_curves.self_s"] <= \
        metrics["zeeman.level_curves_s"]
    # the wrappers are gone again
    import spinzeeman.coupling
    assert spinzeeman.coupling.couple.__module__ == "spinzeeman.coupling"
    assert not hasattr(spinzeeman.coupling.couple, "__wrapped__")


def test_tail_is_the_order_statistic_with_ten_samples_above():
    value, note = run.tail([float(k) for k in range(30)])
    assert value == 19.0 and note.endswith("10 above it")
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0
