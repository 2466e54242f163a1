"""Print median per-stage times and the tracemalloc peak of the census path.

For N = 2...12, the site order of seed 11 and both benchmark trees of
``tools/fingerprint.py`` (atoms chained, unpaired sites last; electrons
chained with positrons chained), one row gives the median milliseconds of
each stage over five runs:

* ``couple``: ``couple(system, tree)``;
* ``moment``: ``moment_matrix`` of the ``full_transform``;
* ``classify_iso`` and ``classify_spin``: ``classify`` under the isolated
  spec and under E = S(S+1), each on a moment matrix built for that run,
  untimed, since a matrix keeps its partners per spec;
* ``overlap``: ``scheme_overlap`` of the atom basis with this tree's basis;
* ``lc_step``: ``level_curves`` under E = S(S+1) on the grid (0, 0.1),
  one ``eigh`` of the march up;

then the tracemalloc peak, in MB, of one untimed run of the census stages
(``couple`` through ``scheme_overlap``), and the median peak of five
untimed ``level_curves`` steps.  A step's two field marches run on two
threads, and its peak depends on how their allocations overlap: single
steps read 52.5-54.0 MB at N = 11 and 209.5-215.0 MB at N = 12.  On a
2-core machine the median read the same value, to the printed 0.01 MB,
in three runs of each tree at N = 10 and 11 and in two at N = 12; so
few runs cannot exclude a rarer spread as wide as a single step's.
Run it from the repository root against a tree's ``src``:

    PYTHONPATH=src python tools/stage_times.py

The script sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before it imports numpy, as the benchmark does.
Only public API is used, so the script runs unchanged against older trees.
"""

from __future__ import annotations

import os

# before numpy is imported, so that its BLAS reads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from fingerprint import _specs, _trees  # noqa: E402

from spinzeeman import (  # noqa: E402
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    level_curves,
    moment_matrix,
    scheme_overlap,
)

SIZES = range(2, 13)
REPEATS = 5
SEED = 11  # shuffles the electron/positron site order
STAGES = ("couple", "moment", "classify_iso", "classify_spin", "overlap",
          "lc_step")
STEP_GRID = np.array([0.0, 0.1])


def _timed(run, *args) -> float:
    start = perf_counter()
    run(*args)
    return perf_counter() - start


def _stages(system, tree, atom):
    """Each stage as a zero-argument callable that returns its time in
    seconds; its inputs are built here or in the stage, untimed."""
    states = couple(system, tree)
    transform = full_transform(states)
    matrix = moment_matrix(transform)
    specs = _specs(states, SEED)
    return {
        "couple": lambda: _timed(couple, system, tree),
        "moment": lambda: _timed(moment_matrix, transform),
        "classify_iso": lambda: _timed(classify, moment_matrix(transform),
                                       specs["isolated"]),
        "classify_spin": lambda: _timed(classify, moment_matrix(transform),
                                        specs["spin"]),
        "overlap": lambda: _timed(scheme_overlap, atom, states),
        "lc_step": lambda: _timed(level_curves, matrix, specs["spin"],
                                  STEP_GRID),
    }


def _peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    print("n tree " + " ".join(f"{s}_ms" for s in STAGES)
          + " census_peak_mb lc_peak_mb", flush=True)
    for n in SIZES:
        order = np.random.default_rng(SEED).permutation(n)
        alternating = [Species.ELECTRON, Species.POSITRON] * n
        species = [alternating[k] for k in order]
        system = SpinSystem.from_species(species)
        trees = _trees(species)
        atom = couple(system, trees["atom"])
        for name, tree in trees.items():
            stages = _stages(system, tree, atom)
            row = [1e3 * statistics.median(stages[s]()
                                           for _ in range(REPEATS))
                   for s in STAGES]

            def census():
                states = couple(system, tree)
                matrix = moment_matrix(full_transform(states))
                specs = _specs(states, SEED)
                classify(matrix, specs["isolated"])
                classify(matrix, specs["spin"])
                scheme_overlap(atom, states)

            peaks = (_peak_mb(census),
                     statistics.median(_peak_mb(stages["lc_step"])
                                       for _ in range(REPEATS)))
            print(f"{n} {name} " + " ".join(f"{t:.3f}" for t in row)
                  + " " + " ".join(f"{p:.2f}" for p in peaks), flush=True)


if __name__ == "__main__":
    main()
