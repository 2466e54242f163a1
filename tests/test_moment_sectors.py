"""Per-M-sector moment matrices, local group rotations, vectorized
second-order sums and per-sector level tracking, each against the formula
it replaced; and census and level-curve properties.

The references below are kept only here: one complex 2^N x 2^N product for
the moment matrix, one block-diagonal rotation R^T E R for the within-group
diagonalization (per (group, M) sub-block, by the eigenvectors its spin
multiplets share over M, and per whole group as it was first done), a
dense rotation and the former dense ``_partners``, which rotate and mask
the whole 2^N x 2^N matrix, a Python pair loop for the
quadratic coefficients, and the former dense 2^N x 2^N tracking of
``level_curves``.
"""

import re
import threading
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from spinzeeman import (
    Classification,
    CouplingTree,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    level_curves,
    m_sector,
    moment_matrix,
    quadratic_coefficients,
    scheme_overlap,
)
from spinzeeman import zeeman

from dense_operators import moment_diagonal

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
    diag = moment_diagonal(basis.system)[basis.columns]
    entries = (basis.matrix.conj() * diag) @ basis.matrix.T
    scale = np.max(np.abs(entries), initial=0.0)
    entries[np.abs(entries) < zeeman.CHOP_TOL * scale] = 0.0
    return entries


def _multiplet_rotations(matrix, spec):
    """Each (group, M) sub-block of more than one state, in ascending M and
    then ascending group index, as (rows, M, rotation): its rows ascending,
    and the eigenvalues and matched eigenvectors it is rotated by, with
    whether its moments are M times those eigenvalues, or None where it is
    already diagonal.  A sub-block of one total spin at M != 0 takes the
    solution of the same multiplets' first sub-block that is not diagonal,
    over M, at their most negative such M; one at M = 0 or that mixes total
    spins is solved alone."""
    entries = matrix.entries
    unit = abs(matrix.basis.system.mu0)
    states = matrix.basis.states
    row_m = np.array([s.m for s in states])
    solved = {}
    rotations = []
    for m in np.unique(row_m):
        for group in spec.groups:
            idx = np.sort(np.asarray(group, dtype=int))
            idx = idx[row_m[idx] == m]
            if idx.size < 2:
                continue
            block = entries[np.ix_(idx, idx)]
            if np.max(np.abs(block - np.diag(np.diag(block)))) <= 1e-15 * unit:
                rotations.append((idx, m, None))
                continue
            per_m = m != 0 and len({states[i].total_s for i in idx}) == 1
            key = (tuple((states[i].total_s, states[i].intermediates)
                         for i in idx) if per_m else len(rotations))
            if key not in solved:
                w, v = np.linalg.eigh(block / m if per_m else block)
                _rows, cols = linear_sum_assignment(-(v * v))
                solved[key] = w[cols], v[:, cols], per_m
            rotations.append((idx, m, solved[key]))
    return rotations


def _dense_rotation(matrix, spec, by_m=True):
    """Assemble R, then one product R^T E R.  With ``by_m``, R rotates
    each (group, M) sub-block by its multiplets' eigenvectors; without it,
    R has one ``eigh`` per whole group, as the first group rotation
    did."""
    entries = matrix.entries
    rotation = np.eye(matrix.size)
    if by_m:
        for idx, _m, solution in _multiplet_rotations(matrix, spec):
            if solution is not None:
                rotation[np.ix_(idx, idx)] = solution[1]
        return rotation.T @ entries @ rotation
    for group in spec.groups:
        idx = np.asarray(group)
        block = entries[np.ix_(idx, idx)]
        if np.max(np.abs(block - np.diag(np.diag(block)))) <= 1e-15:
            continue
        _w, v = np.linalg.eigh(block)
        _rows, cols = linear_sum_assignment(-(v * v))
        rotation[np.ix_(idx, idx)] = v[:, cols]
    return rotation.T @ entries @ rotation


def _former_quadratic(matrix, spec):
    """Second-order coefficients after the former one-``eigh``-per-group
    rotation, which may mix M inside a degenerate eigenspace."""
    rotated = _dense_rotation(matrix, spec, by_m=False)
    energy = spec.energy_of
    gids = spec.group_of
    mask = np.abs(rotated) > zeeman.ZERO_TOL
    mask &= gids[:, None] != gids[None, :]
    rows, cols = np.nonzero(mask)
    terms = rotated[rows, cols] ** 2 / (energy[rows] - energy[cols])
    return np.diag(rotated), np.bincount(rows, weights=terms,
                                         minlength=matrix.size)


def _clusters(values, tol=1e-9):
    """(low, high) bounds of each run of values whose neighbours lie
    within ``tol``, widened by ``tol``."""
    ladder = np.sort(values)
    cuts = np.flatnonzero(np.diff(ladder) > tol) + 1
    return [(run[0] - tol, run[-1] + tol) for run in np.split(ladder, cuts)]


def _dense_rotate_groups(matrix, spec):
    """The group rotation of ``_partners`` on the dense matrix: each (group, M) sub-block
    rotated by its multiplets' eigenvectors inside a copy of the whole
    matrix, its moments M times their eigenvalues over M, or the
    eigenvalues of a sub-block that mixes total spins."""
    unit = abs(matrix.basis.system.mu0)
    entries = matrix.entries  # built on each read, so read once
    rotated = np.array(entries)
    moments = np.diag(rotated).copy()
    row_m = np.array([s.m for s in matrix.basis.states])
    for idx, m, solution in _multiplet_rotations(matrix, spec):
        if solution is None:
            continue
        w, v, per_m = solution
        sector = np.flatnonzero(row_m == m)
        rows = np.ix_(idx, sector)
        rotated[rows] = v.T @ rotated[rows]
        columns = np.ix_(sector, idx)
        rotated[columns] = rotated[columns] @ v
        moments[idx] = m * w if per_m else w
    moments[np.abs(moments) <= zeeman.ZERO_TOL * unit] = 0.0
    return rotated, moments


def _dense_partners(matrix, spec):
    """Former ``_partners``: the rotated dense matrix, the moments, and the
    2^N x 2^N partner mask."""
    rotated, moments = _dense_rotate_groups(matrix, spec)
    gids = spec.group_of
    mask = np.abs(rotated) > zeeman.ZERO_TOL * abs(matrix.basis.system.mu0)
    mask &= gids[:, None] != gids[None, :]
    return rotated, moments, mask


def _loop_quadratic(matrix, spec):
    """Former pair loop over the dense reference, squaring by x * x;
    row-major, ascending j."""
    rotated, _moments, mask = _dense_partners(matrix, spec)
    energy = spec.energy_of
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


def test_moment_blocks_are_checked_for_symmetry():
    # each block is B D B^T; an entry and its mirror may round apart
    for n in range(2, 9):
        species = ALTERNATING[:n]
        system = SpinSystem.from_species(species)
        for tree in _trees(species).values():
            matrix = moment_matrix(full_transform(couple(system, tree)))
            for _rows, block in matrix._blocks:
                assert np.max(np.abs(block - block.T)) <= 1e-14


def test_rejects_sectors_that_miss_or_repeat_a_state():
    like = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    pairs = couple(DIPOS, CouplingTree.positronium_pairs(DIPOS))
    # 16 states, without |2,-2[2,2]⟩ and with |2,2[2,2]⟩ twice, are not
    # a basis that couple built
    states = like[:-1] + like[:1]
    message = "^expected a basis built by couple\\(\\), got a tuple$"
    with pytest.raises(TypeError, match=message):
        full_transform(states)
    for basis_a, basis_b in ((states, pairs), (pairs, states)):
        with pytest.raises(TypeError, match=message):
            scheme_overlap(basis_a, basis_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_matrix_rejects_non_finite_entries(bad):
    # every product-state moment is mu0 k with |k| <= n, so the system
    # rejects a mu0 whose moments would overflow (4 mu0, the moment of
    # |↓↑↓↑⟩, at 1e308), before any moment is computed
    for mu0 in (bad, 1e308):
        message = re.escape(f"n * mu0 must be finite; n=4, mu0={mu0!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                SpinSystem.dipositronium(mu0=mu0)
    system = SpinSystem.dipositronium(mu0=2.0)
    sector = m_sector(couple(system, CouplingTree.like_pairs(system)), 0.0)
    assert np.all(np.isfinite(moment_matrix(sector).entries))


def test_largest_finite_mu0_gives_finite_moments():
    # 12 mu0 = 1.2e308 is the moment of the M = 0 product state with every
    # electron down and every positron up; the library works in units of
    # mu0, so what it returns is checked
    species = [Species.ELECTRON, Species.POSITRON] * 6
    system = SpinSystem.from_species(species, mu0=1e307)
    states = couple(system, _trees(species)["ep"])
    entries = moment_matrix(m_sector(states, 0.0)).entries
    assert np.all(np.isfinite(entries))
    assert np.max(np.abs(entries)) > 1e307
    report = classify(moment_matrix(full_transform(states)),
                      DegeneracySpec.isolated(len(states)))
    moments = np.array([s.moment for s in report.states])
    assert np.all(np.isfinite(moments))
    assert np.max(np.abs(moments)) > 1e307


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_local_group_rotation_matches_dense_product(shape):
    species = ALTERNATING[:6]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    moments, rows, cols, coupling = zeeman._partners(matrix, spec)
    rotated = _dense_rotation(matrix, spec)
    diagonal = np.diag(rotated).copy()
    diagonal[np.abs(diagonal) <= zeeman.ZERO_TOL] = 0.0
    assert np.max(np.abs(moments - diagonal)) <= 1e-14
    # the listed couplings are the off-group entries, and every off-group
    # entry left out lies within the zero tolerance
    gids = spec.group_of
    assert np.all(gids[rows] != gids[cols])
    assert np.max(np.abs(coupling - rotated[rows, cols])) <= 1e-14
    left_out = gids[:, None] != gids[None, :]
    left_out[rows, cols] = False
    assert np.max(np.abs(rotated[left_out])) <= zeeman.ZERO_TOL + 1e-14


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [6, 8])
def test_group_rotation_independent_of_how_groups_split(n, shape):
    """What degenerate perturbation theory fixes, whatever basis a
    degenerate eigenspace gets: each group's moment spectrum, and the
    second-order sum over each eigenspace."""
    species = ALTERNATING[:n]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    moments, rows, cols, _coupling = zeeman._partners(matrix, spec)
    coeffs = quadratic_coefficients(matrix, spec)
    former_moments, former_coeffs = _former_quadratic(matrix, spec)
    for group in spec.groups:
        idx = np.asarray(group)
        spectrum = np.linalg.eigvalsh(matrix.entries[np.ix_(idx, idx)])
        spectrum[np.abs(spectrum) <= zeeman.ZERO_TOL] = 0.0
        assert np.max(np.abs(np.sort(moments[idx]) - spectrum)) <= 1e-13
        for low, high in _clusters(moments[idx]):
            now = idx[(moments[idx] >= low) & (moments[idx] <= high)]
            before = idx[(former_moments[idx] >= low)
                         & (former_moments[idx] <= high)]
            assert now.size == before.size
            assert coeffs[now].sum() == pytest.approx(
                former_coeffs[before].sum(), rel=1e-12, abs=1e-12)
    # a rotated state keeps a definite M: it couples only inside its sector
    row_m = np.array([s.m for s in states])
    assert np.array_equal(row_m[rows], row_m[cols])


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_quadratic_coefficients_match_pair_loop(shape):
    species = ALTERNATING[:8]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    assert np.array_equal(quadratic_coefficients(matrix, spec),
                          _loop_quadratic(matrix, spec))


def _split_by_sign(states, seed=None):
    """Each total spin's states in groups by the sign of M, all at
    E = S(S+1); with a seed, groups and members listed in a shuffled
    order."""
    groups: dict[tuple, list[int]] = {}
    for k, state in enumerate(states):
        groups.setdefault((state.total_s, np.sign(state.m)), []).append(k)
    keys = list(groups)
    if seed is not None:
        rng = np.random.default_rng(seed)
        keys = [keys[g] for g in rng.permutation(len(keys))]
        groups = {key: rng.permutation(groups[key]).tolist() for key in keys}
    return DegeneracySpec(tuple(tuple(groups[key]) for key in keys),
                          tuple(s * (s + 1) for s, _sign in keys),
                          allow_shared_energies=True)


@pytest.mark.parametrize("seed", [1, 2, 11])
@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [6, 8, 10])
def test_verdicts_independent_of_how_a_spec_is_listed(n, shape, seed):
    """One spin's multiplets at M < 0 and M > 0 lie in different groups,
    and each is solved once, at its most negative M, whichever group a
    spec lists first."""
    order = np.random.default_rng(seed).permutation(n)
    species = [ALTERNATING[k % 2] for k in order]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    listed, shuffled = _split_by_sign(states), _split_by_sign(states, seed)
    assert listed != shuffled
    reports = [classify(matrix, spec).states for spec in (listed, shuffled)]
    for before, after in zip(*reports):
        assert after.classification is before.classification
        assert after.moment.hex() == before.moment.hex()
    # no group couples another of its spin, so the moments are those of
    # one group per spin
    assert np.array_equal(zeeman._partners(matrix, shuffled)[0],
                          zeeman._partners(matrix, _spin_grouped(states))[0])
    before, after = (quadratic_coefficients(matrix, spec)
                     for spec in (listed, shuffled))
    assert np.max(np.abs(after - before)) <= 1e-14 * np.max(np.abs(before))


@pytest.mark.parametrize("case", ["like-pairs", "n6-atom"])
def test_empty_group_changes_no_result(case):
    if case == "like-pairs":
        states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    else:
        species = ALTERNATING[:6]
        states = couple(SpinSystem.from_species(species),
                        _trees(species)["atom"])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    # listed first, so every other group's index moves by one
    padded = DegeneracySpec(((),) + spec.groups, (-5.0,) + spec.energies)
    assert classify(matrix, padded).states == classify(matrix, spec).states
    assert np.array_equal(quadratic_coefficients(matrix, padded),
                          quadratic_coefficients(matrix, spec))
    curves = [level_curves(matrix, s, GRID) for s in (padded, spec)]
    assert np.array_equal(curves[0].energies, curves[1].energies)
    assert curves[0].flagged == curves[1].flagged


def _reference_cases():
    for n in range(2, 9):
        system = SpinSystem.from_species(ALTERNATING[:n])
        for shape, tree in _trees(ALTERNATING[:n]).items():
            yield f"n{n}-{shape}", system, tree
    yield "like-pairs", DIPOS, CouplingTree.like_pairs(DIPOS)
    yield "positronium-pairs", DIPOS, CouplingTree.positronium_pairs(DIPOS)


@pytest.mark.parametrize("grouped", [False, True],
                         ids=["isolated", "spin-grouped"])
@pytest.mark.parametrize("name, system, tree", list(_reference_cases()),
                         ids=[c[0] for c in _reference_cases()])
def test_per_block_partners_match_dense_reference(name, system, tree,
                                                  grouped):
    """Rotation and partner scan per M block are bit-identical to the
    former dense rotation and 2^N x 2^N mask."""
    states = couple(system, tree)
    matrix = moment_matrix(full_transform(states))
    spec = (_spin_grouped(states) if grouped
            else DegeneracySpec.isolated(len(states)))
    rotated, dense_moments, mask = _dense_partners(matrix, spec)
    dense_rows, dense_cols = np.nonzero(mask)  # row-major
    moments, rows, cols, coupling_values = zeeman._partners(matrix, spec)
    assert np.array_equal(moments, dense_moments)
    assert np.array_equal(rows, dense_rows)
    assert np.array_equal(cols, dense_cols)
    assert np.array_equal(coupling_values, rotated[dense_rows, dense_cols])
    if grouped:
        energy = spec.energy_of
        terms = rotated[mask] ** 2 / (energy[dense_rows] - energy[dense_cols])
        assert np.array_equal(
            quadratic_coefficients(matrix, spec),
            np.bincount(dense_rows, weights=terms, minlength=matrix.size))


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


def _ep_linear_count(n):
    """LINEAR states of an ``ep`` tree under the isolated spec, in closed
    form.  By the projection theorem a state's moment is proportional to
    M [S_e(S_e+1) - S_p(S_p+1)] / [S(S+1)], so it is LINEAR exactly when
    M != 0 and S_e != S_p; count those states from the multiplicities of
    n/2 coupled spins 1/2."""
    k = n // 2

    def multiplets(two_s):  # spin-S multiplets of k spins 1/2
        low = (k - two_s) // 2
        return comb(k, low) - (comb(k, low - 1) if low else 0)

    spins = range(k % 2, k + 1, 2)  # 2 S_e and 2 S_p
    total = 0
    for two_se in spins:
        for two_sp in spins:
            if two_se == two_sp:
                continue
            for two_s in range(abs(two_se - two_sp), two_se + two_sp + 1, 2):
                states_m_nonzero = two_s + (two_s % 2)
                total += (multiplets(two_se) * multiplets(two_sp)
                          * states_m_nonzero)
    return total


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n, expected", [(2, 0), (4, 4), (6, 24), (8, 112)])
def test_ep_linear_count_matches_projection_theorem(n, expected, seed):
    assert _ep_linear_count(n) == expected
    order = np.random.default_rng(seed).permutation(n)
    species = [ALTERNATING[k] for k in order]
    states = couple(SpinSystem.from_species(species), _trees(species)["ep"])
    report = classify(moment_matrix(full_transform(states)),
                      DegeneracySpec.isolated(len(states)))
    assert report.counts()[Classification.LINEAR] == expected
    # state by state: LINEAR exactly when M != 0 and S_e != S_p
    chains = [frozenset(k for k, s in enumerate(species) if s is kind)
              for kind in (Species.ELECTRON, Species.POSITRON)]
    for state, verdict in zip(states, report.states):
        spins = {frozenset(sites): spin for sites, spin in state.intermediates}
        s_e, s_p = (spins.get(chain, 0.5) for chain in chains)
        linear = state.m != 0 and s_e != s_p
        assert (verdict.classification is Classification.LINEAR) == linear


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_classify_allocates_less_than_one_dense_matrix(shape):
    """Rotation, partner scan, both verdicts and the second-order sums
    work per M block and on partner pairs, never on an n x n array."""
    species = ALTERNATING[:8]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    isolated = DegeneracySpec.isolated(len(states))
    grouped = _spin_grouped(states)
    tracemalloc.start()
    try:
        classify(matrix, isolated)
        classify(matrix, grouped)
        quadratic_coefficients(matrix, grouped)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.size ** 2 * 8


def _dense_level_curves(matrix, spec, grid):
    """Former ``level_curves`` tracking: one dense complex ``eigh`` of
    H0 - B mu per field, assigned by eigenvector overlap; the grid must
    contain 0.0.  Returns the energies, one column per basis state."""
    n = matrix.size
    h0 = np.diag(spec.energy_of.astype(complex))
    moment = matrix.entries
    origin = int(np.flatnonzero(grid == 0.0)[0])
    energies = np.empty((grid.size, n))
    energies[origin] = spec.energy_of

    def march(indices):
        previous = np.eye(n, dtype=complex)
        for i in indices:
            w, v = np.linalg.eigh(h0 - grid[i] * moment)
            overlap = np.abs(previous.conj().T @ v)
            _rows, cols = linear_sum_assignment(-(overlap**2))
            energies[i] = w[cols]
            previous = v[:, cols]

    march(range(origin + 1, grid.size))
    march(range(origin - 1, -1, -1))
    return energies


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [6, 8])
def test_tie_scan_matches_pair_loop(n, shape):
    """The per-sector curves against the former dense tracking: the same
    spectrum at every field, and ties only inside one M sector.  Under
    S(S+1) on the ``ep`` tree every label keeps its dense curve.  Elsewhere
    the labels of degenerate curves are set by rounding and are not pinned:
    the isolated spec leaves whole moment eigenspaces degenerate, and so
    does the ``atom`` tree under S(S+1).
    """
    species = ALTERNATING[:n]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    m_of = {s.label: s.m for s in states}
    grouped = _spin_grouped(states)
    for spec in (DegeneracySpec.isolated(len(states)), grouped):
        curves = level_curves(matrix, spec, GRID)
        h0 = np.diag(spec.energy_of)
        for b, row in zip(GRID, curves.energies):
            exact = np.linalg.eigvalsh(h0 - b * matrix.entries)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.all(np.abs(np.sort(row) - exact) <= 1e-12 * scale)
        # a flagged pair joins two states of one sector, so no sector holds
        # exactly one flagged state at a field
        per_sector = {}
        for b, label in curves.flagged:
            key = b, m_of[label]
            per_sector[key] = per_sector.get(key, 0) + 1
        assert all(count >= 2 for count in per_sector.values())
        if spec is grouped and shape == "ep":
            dense = _dense_level_curves(matrix, spec, GRID)
            assert np.max(np.abs(curves.energies - dense)) <= 1e-12
        else:  # degenerate curves tie somewhere on this grid
            assert per_sector


def _first_fit_decreasing(sizes):
    """Sector indices in bins of the largest size: each sector, largest
    first, goes into the first bin with room for it."""
    bins = []
    for k in sorted(range(len(sizes)), key=lambda k: -sizes[k]):
        room = [b for b in bins
                if sum(sizes[j] for j in b) + sizes[k] <= max(sizes)]
        if room:
            room[0].append(k)
        else:
            bins.append([k])
    return bins


def test_sectors_pack_into_the_fewest_matrices_up_to_n_12():
    # M sectors of n sites hold comb(n, k) states; at N = 12, 13 sectors
    # go into 5 matrices of 924
    for n in range(1, 13):
        sizes = [comb(n, k) for k in range(n + 1)]
        packs = zeeman._first_fit(sizes)
        assert packs == _first_fit_decreasing(sizes)
        assert sorted(k for pack in packs for k in pack) == list(range(n + 1))
        assert all(sum(sizes[k] for k in pack) <= max(sizes)
                   for pack in packs)
    assert len(packs) == 5


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_padded_sectors_solve_as_their_own_blocks(n, shape, monkeypatch):
    """One complex ``eigh`` per nonzero field solves every M sector, placed
    block-diagonally, first fit by decreasing size, into the fewest
    matrices of the largest sector's size, each padded with a diagonal
    above its spectrum.  A sector's kept eigenvalues lie below the pad, its
    kept vectors are exactly zero on every other row, the other sectors of
    its matrix and the pad included, and its energies are those of its own
    block.  The two marches out from B = 0 run at once, so each recorded
    stack is matched to its field by its entries, H0 - B mu, not by the
    order of the solves."""
    species = ALTERNATING[:n]
    states = couple(SpinSystem.from_species(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    spec = _spin_grouped(states)
    energy = spec.energy_of
    solves = []
    lock = threading.Lock()
    eigh = np.linalg.eigh

    def recorded(stack):
        w, v = eigh(stack)
        with lock:
            solves.append((stack.copy(), w, v))
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    grid = np.array([-1e6, -1.0, 0.0, 0.37, 1e6])
    level_curves(matrix, spec, grid)
    fields = [0.37, 1e6, -1.0, -1e6]  # every nonzero field, once
    assert len(solves) == len(fields)
    sizes = [rows.size for rows, _block in matrix._blocks]
    size = max(sizes)
    bins = _first_fit_decreasing(sizes)
    packed = {4: 3, 6: 4, 8: 4}[n]  # of 5, 7 and 9 sectors
    assert len(bins) == packed

    def carries(stack, b):
        """Whether each packed matrix, pad aside, is H0 - B mu entry by entry
        (on some trees every moment diagonal is zero, so the diagonal alone
        would not tell the fields apart)."""
        for k, members in enumerate(bins):
            rows = np.concatenate([matrix._blocks[s][0] for s in members])
            moment = block_diag(*[matrix._blocks[s][1] for s in members])
            want = -(b * moment)
            want[np.diag_indices(rows.size)] = (energy[rows]
                                                - b * np.diag(moment))
            if not np.array_equal(stack[k, :rows.size, :rows.size], want):
                return False
        return True

    matched = [[b for b in fields if carries(stack, b)]
               for stack, _w, _v in solves]
    assert sorted(matched) == sorted([b] for b in fields)
    for [b], (stack, w, v) in zip(matched, solves):
        assert stack.dtype == np.complex128
        assert not np.any(v.imag)  # tracked in float64 from v.real
        assert stack.shape == (packed, size, size)
        for k, members in enumerate(bins):
            ends = np.cumsum([sizes[s] for s in members])
            d = ends[-1]
            if d < size:
                pad = stack[k, d, d].real
                assert np.all(np.diag(stack[k])[d:] == pad)
                assert np.max(w[k, :d]) < pad
            # the rows each kept vector is nonzero on lie in one sector
            support = v[k, :, :d] != 0.0
            sector = np.searchsorted(ends, np.arange(size), side="right")
            first = np.argmax(support, axis=0)
            assert np.all(support <= (sector[:, None] == sector[first]))
            for j, s in enumerate(members):
                rows, block = matrix._blocks[s]
                own = np.linalg.eigvalsh(np.diag(energy[rows]) - b * block)
                kept = w[k, :d][sector[first] == j]
                scale = max(1.0, np.max(np.abs(own)))  # the block's norm
                assert kept.size == rows.size
                assert np.max(np.abs(kept - own)) <= 1e-12 * scale


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
    linear = [s for s in before if s.classification is Classification.LINEAR]
    # only the trees that pair like species carry moment diagonals
    assert bool(linear) == (case in ("like-pairs", "ep"))
    # moments are computed in units of mu0, so any unit, its sign included,
    # gives the same labels, verdicts and partners and scales the slopes
    for mu0 in (-1.0, 9.274e-24, 5e-324, 1e300):
        _states, scaled = _moments_with_mu0(case, mu0)
        for spec in (isolated, grouped):
            after = classify(scaled, spec).states
            for old, new in zip(classify(plus, spec).states, after):
                assert new.label == old.label
                assert new.classification is old.classification
                assert new.quadratic_partners == old.quadratic_partners
                assert new.moment == old.moment * mu0
                assert new.linear_slope == old.linear_slope * mu0

    # E(B) under -mu0 is E(-B) under mu0; GRID is symmetric about 0
    for spec in (isolated, grouped):
        flipped = np.sort(level_curves(minus, spec, GRID).energies, axis=1)
        mirrored = np.sort(level_curves(plus, spec, GRID).energies[::-1],
                           axis=1)
        assert np.max(np.abs(flipped - mirrored)) <= 1e-12
