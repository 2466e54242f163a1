"""Moment matrices, Zeeman classification, level curves, quadratic shifts."""

import math
import re

import numpy as np
import pytest

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
)

from dense_operators import magnetic_moment_z, moment_diagonal

DIPOS = SpinSystem.dipositronium()
LIKE = CouplingTree.like_pairs(DIPOS)
POS = CouplingTree.positronium_pairs(DIPOS)

SQ2 = 1 / math.sqrt(2)

LIKE_M1_MOMENT = 2.0 * np.array([
    [0, -1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, -1, 0],
    [0, 0, 0, 1.0],
])

LIKE_M0_MOMENT = -4.0 * np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1 / math.sqrt(3), 0],
    [0, 0, 0, 1 / math.sqrt(3), 0, math.sqrt(2 / 3)],
    [0, 0, 0, 0, math.sqrt(2 / 3), 0],
])

POS_M1_MOMENT = 2.0 * np.array([
    [0, 0, -SQ2, -SQ2],
    [0, 0, -SQ2, SQ2],
    [-SQ2, -SQ2, 0, 0],
    [-SQ2, SQ2, 0, 0],
])


@pytest.fixture(scope="module")
def like_states():
    return couple(DIPOS, LIKE)


@pytest.fixture(scope="module")
def pos_states():
    return couple(DIPOS, POS)


def _oracle_entries(block):
    """Independent route: conjugate the dense product-basis operator."""
    mu = magnetic_moment_z(block.system).matrix
    restricted = mu[np.ix_(block.columns, block.columns)]
    return block.matrix.conj() @ restricted @ block.matrix.T


def test_like_m1_moment_golden(like_states):
    entries = moment_matrix(m_sector(like_states, 1.0)).entries
    assert np.max(np.abs(entries - LIKE_M1_MOMENT)) <= 1e-12


def test_like_m0_moment_golden(like_states):
    entries = moment_matrix(m_sector(like_states, 0.0)).entries
    assert np.max(np.abs(entries - LIKE_M0_MOMENT)) <= 1e-12
    assert not entries[:3].any()  # first three rows identically zero


def test_pos_m1_moment_golden(pos_states):
    entries = moment_matrix(m_sector(pos_states, 1.0)).entries
    assert np.max(np.abs(entries - POS_M1_MOMENT)) <= 1e-12
    assert np.max(np.abs(np.diag(entries))) == 0.0
    # entries absent from the closed form are exact zeros
    assert entries[0, 1] == 0.0 and entries[2, 3] == 0.0


def test_m_minus_sectors_negate(like_states):
    plus = moment_matrix(m_sector(like_states, 1.0)).entries
    minus = moment_matrix(m_sector(like_states, -1.0)).entries
    assert np.max(np.abs(np.diag(minus) + np.diag(plus))) <= 1e-12
    assert np.max(np.abs(np.abs(minus) - np.abs(plus))) <= 1e-12


def test_stretched_moments_vanish(like_states):
    for m in (2.0, -2.0):
        entries = moment_matrix(m_sector(like_states, m)).entries
        assert entries.shape == (1, 1)
        assert entries[0, 0] == 0.0


@pytest.mark.parametrize("tree", ["like", "pos"])
@pytest.mark.parametrize("m", [2.0, 1.0, 0.0, -1.0, -2.0, None])
def test_oracle_equivalence(tree, m, like_states, pos_states):
    states = like_states if tree == "like" else pos_states
    block = full_transform(states) if m is None else m_sector(states, m)
    entries = moment_matrix(block).entries
    assert np.max(np.abs(entries - _oracle_entries(block))) <= 1e-12


def test_full_matrix_block_diagonal_in_m(like_states):
    block = full_transform(like_states)
    entries = moment_matrix(block).entries
    for i, a in enumerate(block):
        for j, b in enumerate(block):
            if a.m != b.m:
                assert entries[i, j] == 0.0


def test_moment_scales_with_mu0():
    system = SpinSystem.dipositronium(mu0=2.0)
    states = couple(system, CouplingTree.like_pairs(system))
    entries = moment_matrix(m_sector(states, 1.0)).entries
    assert np.max(np.abs(entries - 2.0 * LIKE_M1_MOMENT)) <= 1e-12


# ---------------------------------------------------------------------------
# classification


# SI (J/T) of either sign, a tiny and a huge unit, one just above the
# normal float range and the smallest subnormal: the census must not
# depend on mu0's unit
@pytest.mark.parametrize("mu0", [1e-24, 9.274e-24, 1.0, 1e6, 2.3e-308,
                                 5e-324, -9.274e-24])
def test_classify_like_pairs_default(mu0):
    system = SpinSystem.dipositronium(mu0)
    states = couple(system, CouplingTree.like_pairs(system))
    report = classify(
        moment_matrix(full_transform(states)),
        DegeneracySpec.isolated(16),
    )
    by_label = {s.label: s for s in report.states}

    def slope(label):
        return by_label[label].linear_slope / mu0

    assert by_label["|1,1[1,0]⟩"].classification is Classification.LINEAR
    assert slope("|1,1[1,0]⟩") == pytest.approx(2.0, abs=1e-12)
    assert by_label["|1,1[0,1]⟩"].classification is Classification.LINEAR
    assert slope("|1,1[0,1]⟩") == pytest.approx(-2.0, abs=1e-12)
    assert slope("|1,-1[1,0]⟩") == pytest.approx(-2.0, abs=1e-12)
    assert slope("|1,-1[0,1]⟩") == pytest.approx(2.0, abs=1e-12)

    for label in ("|1,0[0,1]⟩", "|1,0[1,0]⟩", "|0,0[0,0]⟩",
                  "|2,2[2,2]⟩", "|2,-2[2,2]⟩"):
        assert by_label[label].classification is Classification.NONE

    for label in ("|2,0[2,2]⟩", "|1,0[2,2]⟩", "|0,0[2,2]⟩",
                  "|2,1[2,2]⟩", "|1,1[2,2]⟩"):
        assert by_label[label].classification is Classification.QUADRATIC

    counts = report.counts()
    assert counts[Classification.LINEAR] == 4
    assert counts[Classification.QUADRATIC] == 7
    assert counts[Classification.NONE] == 5

    linear = [s.label for s in report.states
              if s.classification is Classification.LINEAR]
    assert sorted(linear) == sorted([
        "|1,1[1,0]⟩", "|1,1[0,1]⟩",
        "|1,-1[1,0]⟩", "|1,-1[0,1]⟩",
    ])


def test_classify_positronium_pairs_default(pos_states):
    report = classify(
        moment_matrix(full_transform(pos_states)),
        DegeneracySpec.isolated(16),
    )
    counts = report.counts()
    assert counts[Classification.LINEAR] == 0
    sector = classify(
        moment_matrix(m_sector(pos_states, 1.0)), DegeneracySpec.isolated(4)
    )
    assert all(
        s.classification is Classification.QUADRATIC for s in sector.states
    )


def test_classify_quadratic_partners(like_states):
    report = classify(
        moment_matrix(m_sector(like_states, 0.0)), DegeneracySpec.isolated(6)
    )
    by_label = {s.label: s for s in report.states}
    assert by_label["|1,0[2,2]⟩"].quadratic_partners == (
        "|2,0[2,2]⟩", "|0,0[2,2]⟩"
    )
    assert by_label["|0,0[0,0]⟩"].quadratic_partners == ()


def test_classify_degenerate_group(like_states):
    # declaring the two M=1 [2,2] states degenerate makes both linear
    sector = m_sector(like_states, 1.0)
    spec = DegeneracySpec(
        groups=((0, 1), (2,), (3,)),
        energies=(0.0, 0.0, 0.0),
        allow_shared_energies=True,
    )
    report = classify(moment_matrix(sector), spec)
    first_two = report.states[:2]
    assert all(s.classification is Classification.LINEAR for s in first_two)
    assert sorted(s.linear_slope for s in first_two) == pytest.approx(
        [-2.0, 2.0], abs=1e-12
    )


def test_classify_rejects_mismatched_spec(like_states):
    with pytest.raises(ValueError):
        classify(
            moment_matrix(m_sector(like_states, 1.0)),
            DegeneracySpec.isolated(6),
        )


def test_sum_rules(like_states):
    sector = m_sector(like_states, 1.0)
    matrix = moment_matrix(sector)
    spec = DegeneracySpec(
        groups=((0, 1), (2,), (3,)),
        energies=(0.0, 0.0, 0.0),
        allow_shared_energies=True,
    )
    report = classify(matrix, spec)
    block_trace = matrix.entries[:2, :2].trace().real
    assert sum(s.linear_slope for s in report.states[:2]) == pytest.approx(
        -block_trace, abs=1e-12
    )
    full = classify(
        moment_matrix(full_transform(like_states)), DegeneracySpec.isolated(16)
    )
    assert sum(s.linear_slope for s in full.states) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("mu0", [1.0, -1.0])
@pytest.mark.parametrize("tree", ["like", "pos"])
def test_zero_moments_and_slopes_are_positive_zeros(tree, mu0):
    """A state of zero moment reports moment and slope +0.0, whatever the
    sign of mu0; a nonzero slope is exactly minus the moment."""
    system = SpinSystem.dipositronium(mu0)
    preset = {"like": CouplingTree.like_pairs,
              "pos": CouplingTree.positronium_pairs}[tree]
    states = couple(system, preset(system))
    matrix = moment_matrix(full_transform(states))
    spin = DegeneracySpec.from_energy_map(
        [s.label for s in states],
        {s.label: s.total_s * (s.total_s + 1) for s in states})
    zeros = 0
    for spec in (DegeneracySpec.isolated(len(states)), spin):
        for report in classify(matrix, spec).states:
            assert report.linear_slope == -report.moment
            if report.moment == 0.0:
                zeros += 1
                assert math.copysign(1.0, report.moment) == 1.0
                assert math.copysign(1.0, report.linear_slope) == 1.0
    assert zeros >= 12


def test_mirror_sector_reports(like_states):
    plus = classify(
        moment_matrix(m_sector(like_states, 1.0)), DegeneracySpec.isolated(4)
    )
    minus = classify(
        moment_matrix(m_sector(like_states, -1.0)), DegeneracySpec.isolated(4)
    )
    for a, b in zip(plus.states, minus.states):
        assert a.classification is b.classification
        assert a.linear_slope == pytest.approx(-b.linear_slope, abs=1e-12)


def test_verdicts_stable_under_rephasing():
    # swapping the sites of the first pair keeps every label and negates
    # the states whose first pair is a singlet
    base, rephased = (
        full_transform(couple(DIPOS, CouplingTree.from_nested(root)))
        for root in (((0, 2), (1, 3)), ((2, 0), (1, 3))))
    assert base.row_labels == rephased.row_labels
    signs = np.sign(np.sum(base.matrix * rephased.matrix, axis=1))
    assert np.array_equal(rephased.matrix, signs[:, None] * base.matrix)
    assert np.sum(signs < 0) == 4
    spec = DegeneracySpec.isolated(16)
    before = classify(moment_matrix(base), spec)
    after = classify(moment_matrix(rephased), spec)
    for a, b in zip(before.states, after.states):
        assert a.classification is b.classification


# ---------------------------------------------------------------------------
# level curves


def test_level_curves_free_moment(like_states):
    matrix = moment_matrix(full_transform(like_states))
    spec = DegeneracySpec.isolated(16)
    grid = np.linspace(-2.0, 2.0, 9)
    curves = level_curves(matrix, spec, grid)
    diag = sorted(moment_diagonal(DIPOS))
    for i, b in enumerate(curves.b_values):
        expected = sorted(-b * d for d in diag)
        assert np.sort(curves.energies[i]) == pytest.approx(expected, abs=1e-10)
    at_zero = curves.energies[list(curves.b_values).index(0.0)]
    assert np.max(np.abs(at_zero)) == 0.0


def test_level_curves_of_an_empty_sector(like_states):
    matrix = moment_matrix(m_sector(like_states, 5.0))
    curves = level_curves(matrix, DegeneracySpec.isolated(0), [0.0, 1.0])
    assert curves.energies.shape == (2, 0)
    assert curves.flagged == ()


def test_level_curves_grid_validation(like_states):
    matrix = moment_matrix(m_sector(like_states, 1.0))
    spec = DegeneracySpec.isolated(4)
    with pytest.raises(ValueError, match="increasing"):
        level_curves(matrix, spec, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match="increasing"):
        level_curves(matrix, spec, np.array([0.0, 0.0]))


@pytest.mark.parametrize("grid", [[np.nan, 0.0, 1.0], [0.0, np.nan],
                                  [np.inf, 0.0, 1.0], [-1.0, 0.0, np.inf],
                                  [-np.inf, 0.0]])
def test_level_curves_rejects_non_finite_fields(grid, like_states,
                                                monkeypatch):
    matrix = moment_matrix(m_sector(like_states, 1.0))
    spec = DegeneracySpec.isolated(4)

    def no_eigh(_matrix):
        raise AssertionError("eigh called on a non-finite grid")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="^field grid must be finite$"):
        level_curves(matrix, spec, np.array(grid))


def test_level_curves_rejects_overflowing_field_times_moment(monkeypatch):
    # positronium's M = 0 moments are 2 mu0; 1e10 * 2e300 overflows
    system = SpinSystem.positronium(mu0=1e300)
    matrix = moment_matrix(full_transform(
        couple(system, CouplingTree.positronium_pairs(system))))
    spec = DegeneracySpec.isolated(4)
    curves = level_curves(matrix, spec, np.array([-1e7, 0.0, 1e7]))
    assert np.all(np.isfinite(curves.energies))

    def no_eigh(_matrix):
        raise AssertionError("eigh called on an overflowing field")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    message = r"^field 10000000000\.0 times moment 2\.0\d*e\+300 overflows$"
    for grid in ([-1e10, 0.0, 1e10], [0.5, 1e10], [-1e10, -1.0]):
        with pytest.raises(ValueError, match=message):
            level_curves(matrix, spec, np.array(grid))


@pytest.mark.parametrize("grid", [
    np.linspace(-1.0, 1.0, 20),  # origin inside
    np.array([0.5, 1.0]),        # origin before the grid
    np.array([-1.0, -0.5]),      # origin after the grid
])
def test_level_curves_grid_without_zero(grid, like_states):
    # the curves on the grid with B = 0 inserted, less that row
    matrix = moment_matrix(full_transform(like_states))
    spec = DegeneracySpec.isolated(16)
    origin = int(np.searchsorted(grid, 0.0))
    anchored = level_curves(matrix, spec, np.insert(grid, origin, 0.0))
    curves = level_curves(matrix, spec, grid)
    assert np.array_equal(curves.b_values, grid)
    assert np.array_equal(curves.energies,
                          np.delete(anchored.energies, origin, axis=0))
    assert curves.flagged == anchored.flagged


def test_level_curves_flags_degenerate_tracking(like_states):
    matrix = moment_matrix(m_sector(like_states, 1.0))
    spec = DegeneracySpec.isolated(4)
    curves = level_curves(matrix, spec, np.linspace(-1.0, 1.0, 5))
    flagged_labels = {label for _b, label in curves.flagged}
    assert flagged_labels == {"|2,1[2,2]⟩", "|1,1[2,2]⟩"}


def test_positronium_closed_form():
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    labels = [s.label for s in states]
    matrix = moment_matrix(full_transform(states))
    gap = 1.0
    spec = DegeneracySpec.from_energy_map(labels, {"|0,0⟩": -gap})
    grid = np.linspace(-3.0, 3.0, 25)
    curves = level_curves(matrix, spec, grid)
    curve = dict(zip(curves.labels, curves.energies.T))

    b = curves.b_values
    mean = -gap / 2
    root = np.sqrt((gap / 2) ** 2 + (2.0 * b) ** 2)
    assert np.max(np.abs(curve["|1,0⟩"] - (mean + root))) <= 1e-10
    assert np.max(np.abs(curve["|0,0⟩"] - (mean - root))) <= 1e-10
    assert np.max(np.abs(curve["|1,1⟩"])) <= 1e-10
    assert np.max(np.abs(curve["|1,-1⟩"])) <= 1e-10


def test_finite_difference_slopes(like_states):
    matrix = moment_matrix(m_sector(like_states, 1.0))
    spec = DegeneracySpec.isolated(4)
    report = classify(matrix, spec)
    step = 1e-6 * np.max(np.abs(matrix.entries))
    curves = level_curves(matrix, spec, np.array([-step, 0.0, step]))
    for k, state in enumerate(report.states):
        if state.classification is not Classification.LINEAR:
            continue
        slope_fd = (curves.energies[2, k] - curves.energies[0, k]) / (2 * step)
        assert slope_fd == pytest.approx(state.linear_slope, rel=1e-5)


# ---------------------------------------------------------------------------
# quadratic coefficients


def test_positronium_quadratic_coefficient():
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    labels = [s.label for s in states]
    matrix = moment_matrix(full_transform(states))
    gap = 1.0  # triplet sits `gap` above the singlet
    spec = DegeneracySpec.from_energy_map(labels, {"|0,0⟩": -gap})
    coeffs = quadratic_coefficients(matrix, spec)
    by_label = dict(zip(labels, coeffs))
    assert by_label["|1,0⟩"] == pytest.approx(4.0 / gap, abs=1e-12)
    assert by_label["|0,0⟩"] == pytest.approx(-4.0 / gap, abs=1e-12)
    assert by_label["|1,1⟩"] == 0.0
    assert by_label["|1,-1⟩"] == 0.0

    # curvature of the exact curves agrees
    step = 1e-3
    curves = level_curves(matrix, spec, np.array([-step, 0.0, step]))
    for label in ("|1,0⟩", "|0,0⟩"):
        k = labels.index(label)
        curv = (
            curves.energies[2, k] - 2 * curves.energies[1, k]
            + curves.energies[0, k]
        ) / step**2
        assert curv / 2 == pytest.approx(by_label[label], rel=1e-4)


def test_like_pairs_m0_quadratic_coefficient(like_states):
    sector = m_sector(like_states, 0.0)
    labels = list(sector.row_labels)
    matrix = moment_matrix(sector)
    # unit gaps around |1,0[2,2]>: |2,0[2,2]> above, |0,0[2,2]> below
    spec = DegeneracySpec.from_energy_map(
        labels, {"|2,0[2,2]⟩": 1.0, "|0,0[2,2]⟩": -1.0}
    )
    coeffs = quadratic_coefficients(matrix, spec)
    by_label = dict(zip(labels, coeffs))
    # couplings -4/sqrt(3) and -4*sqrt(2/3): |.|^2 = 16/3 and 32/3
    expected = (16.0 / 3.0) / (0.0 - 1.0) + (32.0 / 3.0) / (0.0 + 1.0)
    assert by_label["|1,0[2,2]⟩"] == pytest.approx(expected, abs=1e-12)
    assert by_label["|0,0[0,0]⟩"] == 0.0

    step = 1e-3
    curves = level_curves(matrix, spec, np.array([-step, 0.0, step]))
    k = labels.index("|1,0[2,2]⟩")
    curv = (
        curves.energies[2, k] - 2 * curves.energies[1, k] + curves.energies[0, k]
    ) / step**2
    assert curv / 2 == pytest.approx(expected, rel=1e-4)


def test_quadratic_singularity_error(like_states):
    matrix = moment_matrix(m_sector(like_states, 1.0))
    with pytest.raises(ValueError, match="merge"):
        quadratic_coefficients(matrix, DegeneracySpec.isolated(4))


def _like_pairs_staircase(mu0, step=1.0):
    """like-pairs moments at mu0, state k at energy k * step (k = 0...15)."""
    system = SpinSystem.dipositronium(mu0)
    matrix = moment_matrix(full_transform(
        couple(system, CouplingTree.like_pairs(system))))
    energies = {label: k * step for k, label in enumerate(matrix.labels)}
    return matrix, DegeneracySpec.from_energy_map(list(matrix.labels),
                                                  energies)


@pytest.mark.parametrize("mu0", [1e160, -1e200])
def test_quadratic_coefficients_reject_overflowing_mu0_squared(mu0):
    # n * mu0 is finite, mu0 * mu0 is not
    matrix, spec = _like_pairs_staircase(mu0)
    with pytest.raises(ValueError,
                       match=rf"^mu0 {re.escape(repr(mu0))} squared "
                             r"overflows$"):
        quadratic_coefficients(matrix, spec)


def test_quadratic_coefficients_reject_an_overflowing_term():
    # mu0 * mu0 is finite, but coupling^2 / gap * mu0^2 is not for some
    # pairs; no numpy warning escapes (pytest makes warnings errors)
    mu0 = 1.3e154
    matrix, spec = _like_pairs_staircase(mu0)
    with pytest.raises(ValueError,
                       match=rf"^mu0 {re.escape(repr(mu0))} overflows a "
                             r"second-order coefficient$"):
        quadratic_coefficients(matrix, spec)


@pytest.mark.parametrize("mu0", [1e-160, -1e-200])
def test_quadratic_coefficients_reject_underflowing_mu0_squared(mu0):
    # mu0 * mu0 is below the smallest normal float: the coefficients would
    # lose digits or read 0.0
    matrix, spec = _like_pairs_staircase(mu0)
    with pytest.raises(ValueError,
                       match=rf"^mu0 {re.escape(repr(mu0))} squared "
                             r"underflows$"):
        quadratic_coefficients(matrix, spec)


def test_quadratic_coefficients_reject_an_underflowing_term():
    # mu0 * mu0 is normal, but coupling^2 / gap * mu0^2 is not once the
    # gaps are 1e6 wide
    mu0 = 1e-152
    matrix, spec = _like_pairs_staircase(mu0, step=1e6)
    unit = quadratic_coefficients(*_like_pairs_staircase(1.0, step=1e6))
    assert 0.0 < np.max(np.abs(unit)) * (mu0 * mu0) < np.finfo(float).tiny
    with pytest.raises(ValueError,
                       match=rf"^mu0 {re.escape(repr(mu0))} underflows a "
                             r"second-order coefficient$"):
        quadratic_coefficients(matrix, spec)


def test_quadratic_coefficients_scale_with_mu0_squared():
    unit = quadratic_coefficients(*_like_pairs_staircase(1.0))
    assert np.count_nonzero(unit) == 7
    mu0 = 1e150
    scaled = quadratic_coefficients(*_like_pairs_staircase(mu0))
    assert np.all(np.isfinite(scaled))
    np.testing.assert_allclose(scaled, unit * (mu0 * mu0), rtol=1e-12, atol=0)


def test_basis_independence(like_states, pos_states):
    matrix_like = moment_matrix(full_transform(like_states)).entries
    matrix_pos = moment_matrix(full_transform(pos_states)).entries
    for b in (-1.5, -0.25, 0.4, 2.0):
        ev_like = np.linalg.eigvalsh(-b * matrix_like)
        ev_pos = np.linalg.eigvalsh(-b * matrix_pos)
        assert np.max(np.abs(ev_like - ev_pos)) <= 1e-10


# ---------------------------------------------------------------------------
# degeneracy specs


def test_empty_sector_gives_empty_results(like_states):
    # no M = 7 state among four spins: the sector has no block at all
    matrix = moment_matrix(m_sector(like_states, 7.0))
    spec = DegeneracySpec.isolated(0)
    assert classify(matrix, spec).states == ()
    coefficients = quadratic_coefficients(matrix, spec)
    assert coefficients.shape == (0,)
    curves = level_curves(matrix, spec, [0.0, 1.0])
    assert curves.energies.shape == (2, 0)


def test_empty_group_takes_no_part_in_the_energy_checks():
    # the three M = 1/2 states of e-p-e; the empty group's energy is near
    # to, or equal to, that of a group with states, and is not compared
    species = [Species.ELECTRON, Species.POSITRON, Species.ELECTRON]
    system = SpinSystem.from_species(species)
    states = couple(system, CouplingTree.from_nested(((0, 1), 2)))
    matrix = moment_matrix(m_sector(states, 0.5))
    plain = DegeneracySpec(((0, 1), (2,)), (0.0, 5.0))
    grid = [-2.0, 0.0, 0.5, 2.0]
    for empty in (1e-12, 0.0):
        spec = DegeneracySpec(((0, 1), (), (2,)), (0.0, empty, 5.0))
        assert classify(matrix, spec).states == classify(matrix, plain).states
        assert np.array_equal(quadratic_coefficients(matrix, spec),
                              quadratic_coefficients(matrix, plain))
        curves = [level_curves(matrix, s, grid) for s in (spec, plain)]
        assert np.array_equal(curves[0].energies, curves[1].energies)
        assert curves[0].flagged == curves[1].flagged
    # groups with states are still compared, by their index in the spec
    with pytest.raises(ValueError, match="^groups 0 and 2 have distinct but "
                                         "nearly equal energies"):
        DegeneracySpec(((0, 1), (), (2,)), (0.0, 0.0, 1e-12))
    with pytest.raises(ValueError, match="share an energy"):
        DegeneracySpec(((0, 1), (), (2,)), (0.0, 7.0, 0.0))


@pytest.mark.parametrize("member", [0.5, 1.7, np.float64(-0.25)])
def test_degeneracy_spec_rejects_fractional_members(member):
    message = re.escape(f"group member {member!r} is not an integer")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DegeneracySpec(((member,), (1,)), (0.0, 1.0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        DegeneracySpec(((0, 1), (2, member)), (0.0, 1.0))


def test_degeneracy_spec_validation():
    with pytest.raises(ValueError):
        DegeneracySpec(groups=((0, 1), (1, 2)), energies=(0.0, 1.0))
    with pytest.raises(ValueError):
        DegeneracySpec(groups=((0,), (1,)), energies=(0.0,))
    with pytest.raises(ValueError, match="share an energy"):
        DegeneracySpec(groups=((0,), (1,)), energies=(1.0, 1.0))
    spec = DegeneracySpec(
        groups=((0,), (1,)), energies=(1.0, 1.0), allow_shared_energies=True
    )
    assert spec.size == 2
    with pytest.raises(ValueError):
        DegeneracySpec(groups=((0,),), energies=(float("nan"),))


def test_degeneracy_spec_keeps_each_states_group_and_energy():
    # groups and members in any order; the arrays are indexed by state
    spec = DegeneracySpec(groups=((3, 1), (), (0, 4, 2)),
                          energies=(2.5, 7.0, -1.0))
    assert spec.group_of.tolist() == [2, 0, 2, 0, 2]
    assert spec.energy_of.tolist() == [-1.0, 2.5, -1.0, 2.5, -1.0]
    assert spec.energy_of.dtype == np.float64
    assert spec.size == 5
    for array in (spec.group_of, spec.energy_of):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # not part of equality or hashing: equal partitions are one spec
    again = DegeneracySpec(spec.groups, spec.energies)
    assert again == spec and hash(again) == hash(spec)
    assert "group_of" not in repr(spec)
    empty = DegeneracySpec.isolated(0)
    assert (empty.size, empty.group_of.size, empty.energy_of.size) == (0, 0, 0)


def test_isolated_spec_equals_the_spec_of_its_tuples(like_states):
    for n in (0, 1, 7, 1024):
        spec = DegeneracySpec.isolated(n)
        built = DegeneracySpec(tuple((i,) for i in range(n)), (0.0,) * n,
                               allow_shared_energies=True)
        assert spec == built and hash(spec) == hash(built)
        assert repr(spec) == repr(built)
        for ours, theirs in ((spec.group_of, built.group_of),
                             (spec.energy_of, built.energy_of)):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
            assert not ours.flags.writeable
    # members other than ints, and groups other than tuples, still become
    # them; the partition is checked on the states they place
    spec = DegeneracySpec([[np.int64(2), True], [0.0]], [np.float32(0.5), 1])
    assert spec.groups == ((2, 1), (0,)) and spec.energies == (0.5, 1.0)
    assert {type(i) for g in spec.groups for i in g} == {int}
    assert spec.group_of.tolist() == [1, 0, 0]
    for groups in (((-1, 0),), ((0, 2),), ((0, 0),), ((1,),)):
        with pytest.raises(ValueError, match="^groups must partition the "
                                             "basis states exactly$"):
            DegeneracySpec(groups, (0.0,))
    # the groups become a tuple also when their members need no change:
    # a list of int tuples, or a generator, gives the spec of the tuples,
    # which is hashable, so the matrix can keep its partners by spec
    matrix = moment_matrix(m_sector(like_states, 1.0))
    tuples = ((0, 1), (2,), (3,))
    built = DegeneracySpec(tuples, (0.0, 1.0, 2.0))
    for groups in (list(tuples), (g for g in tuples), [iter(tuples[0]),
                                                        [2], (3,)]):
        spec = DegeneracySpec(groups, (0.0, 1.0, 2.0))
        assert spec.groups == tuples and type(spec.groups) is tuple
        assert spec == built and hash(spec) == hash(built)
        assert repr(spec) == repr(built)
        assert classify(matrix, spec).states == classify(matrix, built).states
        assert np.array_equal(quadratic_coefficients(matrix, spec),
                              quadratic_coefficients(matrix, built))


@pytest.mark.parametrize("n", [-1, 2.5, 2.0, "3", None, True, False])
def test_isolated_spec_refuses_a_size_that_is_no_count(n):
    message = re.escape(f"isolated spec needs a non-negative integer state "
                        f"count, got {n!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DegeneracySpec.isolated(n)


def test_isolated_spec_is_built_as_the_validated_constructor_builds_it():
    # isolated() sets its fields without the checks of __post_init__
    for n in (0, 1, 2, 16, 1024, np.int64(16)):
        spec = DegeneracySpec.isolated(n)
        built = DegeneracySpec(tuple((i,) for i in range(n)), (0.0,) * n,
                               allow_shared_energies=True)
        assert spec == built and hash(spec) == hash(built)
        assert repr(spec) == repr(built)
        assert type(spec.groups) is tuple and type(spec.energies) is tuple
        assert {type(i) for g in spec.groups for i in g} <= {int}
        assert {type(e) for e in spec.energies} <= {float}
        for ours, theirs in ((spec.group_of, built.group_of),
                             (spec.energy_of, built.energy_of)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
            assert not ours.flags.writeable and not theirs.flags.writeable
        assert spec.size == built.size == n


def test_from_energy_map_groups_equal_energies():
    labels = ["a", "b", "c", "d"]
    spec = DegeneracySpec.from_energy_map(labels, {"b": 2.0, "d": 2.0})
    assert spec.groups == ((0, 2), (1, 3))
    assert spec.energies == (0.0, 2.0)
    with pytest.raises(ValueError, match="unknown"):
        DegeneracySpec.from_energy_map(labels, {"zz": 1.0})


def test_from_energy_map_rejects_near_equal_energies(like_states):
    # the first two M=1 states are coupled, so a 1e-12 gap would give a
    # 4e12 second-order coefficient
    labels = list(m_sector(like_states, 1.0).row_labels)
    a, b = labels[0], labels[1]
    for low, high in [(1.0, 1.0 + 1e-12), (0.0, 1e-10), (-1e6, -1e6 + 1e-4)]:
        names = re.escape(f"states {a} and {b}")
        with pytest.raises(ValueError, match=f"^{names}"):
            DegeneracySpec.from_energy_map(labels, {a: low, b: high})
    spec = DegeneracySpec.from_energy_map(labels, {a: 1e6, b: 1e6 + 1.0})
    assert spec.groups == ((0,), (1,), (2, 3))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_from_energy_map_rejects_non_finite_energy(like_states, bad):
    # checked before the near-equal scan, which read inf as an energy
    # distinct from but nearly equal to 0.0
    labels = list(full_transform(like_states).row_labels)
    message = re.escape(f"state {labels[1]} has non-finite energy {bad!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DegeneracySpec.from_energy_map(labels, {labels[1]: bad})


def test_spec_constructor_rejects_near_equal_energies(like_states):
    # built directly, not through from_energy_map: before, this spec gave
    # second-order coefficients of -/+4e12 on the like-pairs M=1 block
    groups = ((0,), (1,), (2, 3))
    for shared in (False, True):
        with pytest.raises(ValueError, match="^groups 0 and 1 have distinct "
                                             "but nearly equal energies"):
            DegeneracySpec(groups, (1.0, 1.0 + 1e-12, 0.0),
                           allow_shared_energies=shared)
    with pytest.raises(ValueError, match="^groups 2 and 0 "):
        DegeneracySpec(groups, (-1e6 + 1e-4, 5.0, -1e6))
    # equal energies are not near-equal: the isolated spec still builds
    assert DegeneracySpec.isolated(4).energies == (0.0,) * 4
    spec = DegeneracySpec(groups, (1.0, 1.0 + 1e-6, 0.0))
    block = moment_matrix(m_sector(like_states, 1.0))
    assert np.all(np.isfinite(quadratic_coefficients(block, spec)))
