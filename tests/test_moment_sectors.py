"""Per-M-sector moment matrices, local group rotations, vectorized
second-order sums and the vectorized tie scan of level tracking, each
against the formula it replaced; and census and level-curve properties.

The references below are kept only here: one complex 2^N x 2^N product for
the moment matrix, one block-diagonal rotation R^T E R for the within-group
diagonalization, a Python pair loop for the quadratic coefficients, and a
Python (row, column) loop for the tie scan of ``level_curves``.
"""

import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spinzeeman import (
    BasisTransform,
    Classification,
    CouplingTree,
    DegeneracySpec,
    MomentMatrix,
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    level_curves,
    m_sector,
    moment_diagonal,
    moment_matrix,
    quadratic_coefficients,
)
from spinzeeman import zeeman

ALTERNATING = [Species.ELECTRON, Species.POSITRON] * 4
DIPOS = SpinSystem.dipositronium()
GRID = np.linspace(-1.0, 1.0, 21)


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
        "ep": CouplingTree.from_nested((_chain(electrons), _chain(positrons))),
    }


def _spin_grouped(states):
    """E = S(S+1): one degenerate group per total spin."""
    groups: dict[float, list[int]] = {}
    for k, state in enumerate(states):
        groups.setdefault(state.total_s, []).append(k)
    return DegeneracySpec(
        tuple(tuple(g) for g in groups.values()),
        tuple(s * (s + 1) for s in groups),
    )


def _dense_moment(basis):
    """Former ``moment_matrix``: one product over all columns, then the
    chop."""
    columns = [c.index for c in basis.column_states]
    diag = moment_diagonal(basis.system)[columns]
    entries = (basis.matrix.conj() * diag) @ basis.matrix.T
    scale = np.max(np.abs(entries), initial=0.0)
    entries[np.abs(entries) < zeeman.CHOP_TOL * scale] = 0.0
    return entries


def _dense_rotation(matrix, spec):
    """Former ``_rotate_groups``: assemble R, then one product R^T E R."""
    entries = matrix.entries
    rotation = np.eye(matrix.size)
    for group in spec.groups:
        idx = np.asarray(group)
        block = entries[np.ix_(idx, idx)]
        if np.max(np.abs(block - np.diag(np.diag(block)))) <= 1e-15:
            continue
        _w, v = np.linalg.eigh(block)
        _rows, cols = linear_sum_assignment(-(v * v))
        rotation[np.ix_(idx, idx)] = v[:, cols]
    return rotation.T @ entries @ rotation


def _loop_quadratic(matrix, spec):
    """Former pair loop, squaring by x * x; row-major, ascending j."""
    rotated, _moments, mask = zeeman._partners(matrix, spec)
    energy = spec.state_energies()
    coeffs = np.zeros(matrix.size)
    for i, j in zip(*np.nonzero(mask)):
        coeffs[i] += rotated[i, j] * rotated[i, j] / (energy[i] - energy[j])
    return coeffs


@pytest.mark.parametrize("mu0", [1.0, 9.274e-24])
@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", range(2, 9))
def test_sector_products_match_dense_product(n, shape, mu0):
    species = ALTERNATING[:n]
    system = SpinSystem.from_species(species, mu0)
    states = couple(system, _trees(species)[shape])
    blocks = [full_transform(states)]
    blocks += [m_sector(states, m) for m in sorted({s.m for s in states})]
    for block in blocks:
        entries = moment_matrix(block).entries
        assert entries.dtype == np.float64
        dev = np.max(np.abs(entries - _dense_moment(block)))
        assert dev <= 1e-14 * abs(mu0)


def test_rejects_row_leaking_across_sectors():
    basis = full_transform(couple(DIPOS, CouplingTree.like_pairs(DIPOS)))
    i, j = 1, 5
    assert basis.states[i].m != basis.states[j].m
    mixed = np.array(basis.matrix)
    mixed[[i, j]] = (mixed[i] + np.array([[1], [-1]]) * mixed[j]) / np.sqrt(2)
    # still orthonormal: only the sector check can reject it
    assert np.max(np.abs(mixed @ mixed.conj().T - np.eye(16))) <= 1e-12
    leaky = BasisTransform(basis.states, basis.column_states, mixed, DIPOS)
    with pytest.raises(ValueError, match="M sector"):
        moment_matrix(leaky)


def test_rejects_complex_basis():
    sector = m_sector(couple(DIPOS, CouplingTree.like_pairs(DIPOS)), 1.0)
    phased = np.array(sector.matrix)
    phased[2] *= 1j
    block = BasisTransform(sector.states, sector.column_states, phased, DIPOS)
    with pytest.raises(ValueError, match="real"):
        moment_matrix(block)
    with pytest.raises(ValueError, match="real"):
        MomentMatrix(sector, 1j * np.eye(4))


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_local_group_rotation_matches_dense_product(shape):
    species = ALTERNATING[:6]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    rotated, _moments = zeeman._rotate_groups(matrix, spec)
    assert np.max(np.abs(rotated - _dense_rotation(matrix, spec))) <= 1e-14


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_quadratic_coefficients_match_pair_loop(shape):
    species = ALTERNATING[:8]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    assert np.array_equal(quadratic_coefficients(matrix, spec),
                          _loop_quadratic(matrix, spec))


def test_shared_energy_error_names_first_pair():
    # Rows 0-2 of the like-pairs M=0 block are zero.  (3, 4) is the first
    # coupled pair in row-major order; column-major order would give (4, 3).
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    matrix = moment_matrix(m_sector(states, 0.0))
    first = re.escape("states |2,0[2,2]⟩ and |1,0[2,2]⟩ are coupled")
    with pytest.raises(ValueError, match=f"^{first}"):
        quadratic_coefficients(matrix, DegeneracySpec.isolated(matrix.size))


def _counts(species, shape):
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    specs = (DegeneracySpec.isolated(len(states)), _spin_grouped(states))
    return [classify(matrix, spec).counts() for spec in specs]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_census_counts_independent_of_particle_order(shape, seed):
    base = ALTERNATING[:6]
    order = np.random.default_rng(seed).permutation(6)
    assert _counts([base[k] for k in order], shape) == _counts(base, shape)


def _loop_level_curves(matrix, spec, grid):
    """Former ``level_curves`` tie scan, a loop over every (row, column)
    pair; the grid must contain 0.0.  Returns energies and flags."""
    n = matrix.size
    h0 = np.diag(spec.state_energies().astype(complex))
    origin = int(np.flatnonzero(grid == 0.0)[0])
    energies = np.empty((grid.size, n))
    energies[origin] = spec.state_energies()
    labels = matrix.labels
    flagged = []

    def march(indices):
        previous = np.eye(n, dtype=complex)
        for i in indices:
            w, v = np.linalg.eigh(h0 - grid[i] * matrix.entries)
            overlap = np.abs(previous.conj().T @ v)
            _rows, cols = linear_sum_assignment(-(overlap**2))
            for r in range(n):
                best = overlap[r, cols[r]]
                for c in range(n):
                    if c == cols[r]:
                        continue
                    if best - overlap[r, c] <= zeeman.TRACK_TIE_TOL:
                        other = int(np.flatnonzero(cols == c)[0])
                        flagged.append((grid[i], labels[r]))
                        flagged.append((grid[i], labels[other]))
            energies[i] = w[cols]
            previous = v[:, cols]

    march(range(origin + 1, grid.size))
    march(range(origin - 1, -1, -1))
    return energies, tuple(dict.fromkeys(flagged))


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [6, 8])
def test_tie_scan_matches_pair_loop(n, shape):
    species = ALTERNATING[:n]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    curves = level_curves(matrix, spec, GRID)
    energies, flagged = _loop_level_curves(matrix, spec, GRID)
    assert flagged  # degenerate curves tie somewhere on this grid
    assert np.array_equal(curves.energies, energies)
    assert curves.flagged == flagged


def _moments_with_mu0(case, mu0):
    if case in ("like-pairs", "positronium-pairs"):
        system = SpinSystem.dipositronium(mu0)
        preset = {"like-pairs": CouplingTree.like_pairs,
                  "positronium-pairs": CouplingTree.positronium_pairs}[case]
        tree = preset(system)
    else:
        species = ALTERNATING[:6]
        system = SpinSystem.from_species(species, mu0)
        tree = _trees(species)[case]
    states = couple(system, tree)
    return states, moment_matrix(full_transform(states))


@pytest.mark.parametrize("case", ["like-pairs", "positronium-pairs",
                                  "atom", "ep"])
def test_moment_sign_flip_mirrors_census_and_curves(case):
    states, plus = _moments_with_mu0(case, 1.0)
    _states, minus = _moments_with_mu0(case, -1.0)
    isolated = DegeneracySpec.isolated(len(states))
    grouped = _spin_grouped(states)
    for spec in (isolated, grouped):
        assert classify(minus, spec).counts() == classify(plus, spec).counts()

    before = classify(plus, isolated).states
    after = classify(minus, isolated).states
    linear = [s for s in before if s.classification is Classification.LINEAR]
    # only the trees that pair like species carry moment diagonals
    assert bool(linear) == (case in ("like-pairs", "ep"))
    for old, new in zip(before, after):
        assert new.label == old.label
        assert new.classification is old.classification
        if old.classification is Classification.LINEAR:
            assert new.linear_slope == -old.linear_slope

    # E(B) under -mu0 is E(-B) under mu0; GRID is symmetric about 0
    for spec in (isolated, grouped):
        flipped = np.sort(level_curves(minus, spec, GRID).energies, axis=1)
        mirrored = np.sort(level_curves(plus, spec, GRID).energies[::-1],
                           axis=1)
        assert np.max(np.abs(flipped - mirrored)) <= 1e-12
