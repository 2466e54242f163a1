"""Properties that hold on any coupling tree, checked on seeded random trees.

``_random_trees()`` (``random.Random(36)``) draws trees of random species,
shapes and site orders; those of at most six sites are checked here
against the dense operators of ``dense_operators``:

* the basis is orthonormal, and S^2, S_z and the spin of every internal
  node are diagonal on it with the values its states are labelled with;
* the sorted level curves are the eigenvalues of the dense
  H(B) = H0 - B mu_z, under the isolated and the E = S(S+1) specs;
* each field's energies come from that field's solve alone, so a grid and
  its refinement give bit-equal sorted energies at the fields they share.

Each test id is the tree as CLI options, to replay a failure with.
"""

import numpy as np
import pytest

from dense_operators import magnetic_moment_z, total_spin_squared, total_spin_z
from like_spin_oracle import spin_grouped
from spinzeeman import (
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    couple,
    level_curves,
    moment_matrix,
)
from test_moment_sectors import _random_trees

TREES = [case for case in _random_trees() if len(case.values[0][0]) <= 6]
# B = 0 and fields of both signs; the refinement adds every midpoint
GRID = np.array([-0.9, -0.2, 0.0, 0.35, 1.0])
REFINED = np.sort(np.concatenate([GRID, (GRID[1:] + GRID[:-1]) / 2]))


def _basis(case):
    species, root = case
    return couple(SpinSystem(species), CouplingTree(root))


def _specs(basis):
    return (DegeneracySpec.isolated(len(basis)), spin_grouped(basis))


def _energies(spec, size):
    """Each state's unperturbed energy under ``spec``."""
    energy = np.zeros(size)
    for group, value in zip(spec.groups, spec.energies):
        energy[list(group)] = value
    return energy


def test_the_trees_cover_small_odd_and_single_species_systems():
    sizes = {len(case.values[0][0]) for case in TREES}
    assert sizes == {3, 4, 5, 6}
    assert any(len(set(case.values[0][0])) == 1 for case in TREES)


@pytest.mark.parametrize("case", TREES)
def test_basis_diagonalizes_the_total_and_every_node_spin(case):
    basis = _basis(case)
    system = basis.system
    u = basis.matrix
    assert np.max(np.abs(u @ u.T - np.eye(len(basis)))) <= 1e-12
    checks = [(total_spin_squared(system),
               [s.total_s * (s.total_s + 1) for s in basis]),
              (total_spin_z(system), [s.m for s in basis])]
    for k, (sites, _spin) in enumerate(basis[0].intermediates):
        assert all(s.intermediates[k][0] == sites for s in basis)
        checks.append((total_spin_squared(system, sites),
                       [j * (j + 1) for _sites, j in
                        (s.intermediates[k] for s in basis)]))
    assert len(checks) == system.n  # the root, S_z and n - 2 inner nodes
    for operator, values in checks:
        rotated = u @ operator.matrix @ u.T
        scale = max(1.0, max(map(abs, values)))
        assert np.max(np.abs(rotated - np.diag(values))) <= 1e-12 * scale


@pytest.mark.parametrize("case", TREES)
def test_sorted_level_curves_are_the_dense_spectrum(case):
    basis = _basis(case)
    u = basis.matrix
    mu = magnetic_moment_z(basis.system).matrix
    matrix = moment_matrix(basis)
    for spec in _specs(basis):
        h0 = u.T @ (_energies(spec, len(basis))[:, None] * u)
        curves = level_curves(matrix, spec, GRID)
        for b, levels in zip(GRID, np.sort(curves.energies, axis=1)):
            dense = np.linalg.eigvalsh(h0 - b * mu)
            scale = max(1.0, np.max(np.abs(dense)))
            assert np.max(np.abs(levels - dense)) <= 1e-12 * scale, b


@pytest.mark.parametrize("case", TREES)
def test_a_refined_grid_keeps_the_energies_at_shared_fields(case):
    basis = _basis(case)
    matrix = moment_matrix(basis)
    shared = np.isin(REFINED, GRID)
    assert REFINED[shared].tolist() == GRID.tolist()
    for spec in _specs(basis):
        coarse = level_curves(matrix, spec, GRID).energies
        fine = level_curves(matrix, spec, REFINED).energies
        assert np.array_equal(np.sort(fine[shared], axis=1),
                              np.sort(coarse, axis=1))
