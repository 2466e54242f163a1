"""Print one sha256 per case over the library's numerical outputs.

Two trees of the library that print the same lines give bit-identical
output on every case.  Run it from the repository root against a tree's
``src``:

    PYTHONPATH=src python tools/fingerprint.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/fingerprint.py > before.txt
    diff before.txt after.txt

A case is a particle count N = 2...10, a seed (1, 2, 11) that shuffles the
electron/positron site order, a coupling tree (atoms chained, or electrons
with positrons) and a degeneracy spec (isolated; E = S(S+1); the same
partition with groups and members listed in a seeded shuffled order; and
each spin's states split into groups by the sign of M, at E = S(S+1) and
listed in a seeded shuffled order, so that one spin's multiplets span
several groups).  Each
hash covers the coupled basis (amplitudes and labels), the moment matrix
``entries``, the overlap with the other tree's basis, the ``classify``
report (label, class, ``moment.hex()``, partners), the quadratic
coefficients (or their error message) and, for N <= 8, the level curves
with their labels and flags on four field grids.  ``shuffled`` lists the
partition of ``spin`` in another order, and the library's output depends
on the partition alone, so each ``spec=shuffled`` line must print the hash
of its ``spec=spin`` line.

The script sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before it imports numpy, as the benchmark does:
some hashes depend on the BLAS thread count (on a 2-core machine, 48 of the
216 lines differ between 1 and 2 threads), so two trees are compared under
one setting.

Only public API is used, so the script runs unchanged against older trees.
"""

from __future__ import annotations

import hashlib
import os

# before numpy is imported, so that its BLAS reads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spinzeeman import (  # noqa: E402
    CouplingTree,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    level_curves,
    moment_matrix,
    quadratic_coefficients,
    scheme_overlap,
)

SIZES = range(2, 11)
SEEDS = (1, 2, 11)
CURVES_MAX_N = 8
GRIDS = (
    np.linspace(-1.0, 1.0, 21),  # symmetric, with an exact 0.0
    np.linspace(0.1, 2.0, 7),  # no 0.0: both marches start from B = 0
    np.linspace(-3.0, -0.5, 6),  # negative fields only
    np.array([-1e6, -1.0, 0.0, 0.37, 1e6]),  # far beyond the spectrum
)


def _chain(nodes):
    node = nodes[0]
    for nxt in nodes[1:]:
        node = (node, nxt)
    return node


def _trees(species):
    """Atoms chained (unpaired sites last), and electrons with positrons."""
    electrons = [k for k, s in enumerate(species) if s is Species.ELECTRON]
    positrons = [k for k, s in enumerate(species) if s is Species.POSITRON]
    atoms = list(zip(electrons, positrons))
    unpaired = electrons[len(atoms):] + positrons[len(atoms):]
    return {
        "atom": CouplingTree.from_nested(_chain(atoms + unpaired)),
        "ep": CouplingTree.from_nested((_chain(electrons),
                                        _chain(positrons))),
    }


def _specs(states, seed):
    by_spin: dict[float, list[int]] = {}
    for k, state in enumerate(states):
        by_spin.setdefault(state.total_s, []).append(k)
    groups = [tuple(g) for g in by_spin.values()]
    energies = [s * (s + 1) for s in by_spin]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(groups)).tolist()
    shuffled = tuple(tuple(rng.permutation(groups[g]).tolist())
                     for g in order)
    by_sign: dict[tuple[float, float], list[int]] = {}
    for k, state in enumerate(states):
        by_sign.setdefault((state.total_s, np.sign(state.m)), []).append(k)
    keys = list(by_sign)
    keys = [keys[g] for g in rng.permutation(len(keys))]
    split = tuple(tuple(rng.permutation(by_sign[key]).tolist())
                  for key in keys)
    return {
        "isolated": DegeneracySpec.isolated(len(states)),
        "spin": DegeneracySpec(tuple(groups), tuple(energies)),
        "shuffled": DegeneracySpec(shuffled,
                                   tuple(energies[g] for g in order)),
        "split": DegeneracySpec(split, tuple(s * (s + 1) for s, _ in keys),
                                allow_shared_energies=True),
    }


def _update(digest, *items) -> None:
    for item in items:
        if isinstance(item, np.ndarray):
            digest.update(f"{item.dtype}{item.shape}".encode())
            digest.update(np.ascontiguousarray(item).tobytes())
        else:
            digest.update(repr(item).encode("utf-8"))


def _spec_items(digest, matrix, spec, n) -> None:
    for report in classify(matrix, spec).states:
        _update(digest, report.label, report.classification.value,
                float(report.moment).hex(), report.quadratic_partners)
    try:
        _update(digest, quadratic_coefficients(matrix, spec))
    except ValueError as exc:
        _update(digest, f"error: {exc}")
    if n <= CURVES_MAX_N:
        for grid in GRIDS:
            curves = level_curves(matrix, spec, grid)
            _update(digest, curves.b_values, curves.energies, curves.labels,
                    curves.flagged)


def main() -> None:
    for n in SIZES:
        for seed in SEEDS:
            order = np.random.default_rng(seed).permutation(n)
            alternating = [Species.ELECTRON, Species.POSITRON] * n
            species = [alternating[k] for k in order]
            system = SpinSystem.from_species(species)
            bases = {name: couple(system, tree)
                     for name, tree in _trees(species).items()}
            overlap = scheme_overlap(bases["atom"], bases["ep"])
            for name, states in bases.items():
                transform = full_transform(states)
                matrix = moment_matrix(transform)
                shared = hashlib.sha256()
                _update(shared, transform.matrix, transform.row_labels,
                        transform.column_labels, matrix.entries, overlap)
                for spec_name, spec in _specs(states, seed).items():
                    digest = shared.copy()
                    _spec_items(digest, matrix, spec, n)
                    print(f"n={n} seed={seed} tree={name} spec={spec_name} "
                          f"{digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
