"""Moment matrices, Zeeman classification, level curves, quadratic shifts."""

import math
import re

import numpy as np
import pytest

from spinzeeman import (
    BasisTransform,
    Classification,
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    classify,
    couple,
    full_transform,
    level_curves,
    m_sector,
    magnetic_moment_z,
    moment_diagonal,
    moment_matrix,
    quadratic_coefficients,
)

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
    cols = [c.index for c in block.column_states]
    restricted = mu[np.ix_(cols, cols)]
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
    for i, a in enumerate(block.states):
        for j, b in enumerate(block.states):
            if a.m != b.m:
                assert entries[i, j] == 0.0


def test_moment_scales_with_mu0():
    system = SpinSystem.dipositronium(mu0=2.0)
    states = couple(system, CouplingTree.like_pairs(system))
    entries = moment_matrix(m_sector(states, 1.0)).entries
    assert np.max(np.abs(entries - 2.0 * LIKE_M1_MOMENT)) <= 1e-12


def test_moment_matrix_rejects_non_orthonormal(like_states):
    sector = m_sector(like_states, 1.0)
    bad = np.array(sector.matrix)
    bad[1] = bad[0]
    block = BasisTransform(sector.states, sector.column_states, bad, sector.system)
    with pytest.raises(ValueError, match="orthonormal"):
        moment_matrix(block)


# ---------------------------------------------------------------------------
# classification


# SI (J/T), a tiny and a huge unit: the census must not depend on mu0's unit
@pytest.mark.parametrize("mu0", [1e-24, 9.274e-24, 1.0, 1e6])
def test_classify_like_pairs_default(mu0):
    system = SpinSystem.dipositronium(mu0)
    states = couple(system, CouplingTree.like_pairs(system))
    report = classify(
        moment_matrix(full_transform(states)),
        DegeneracySpec.isolated(16),
    )
    by_label = report.by_label()

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
    by_label = report.by_label()
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


def test_verdicts_stable_under_rephasing(like_states):
    sector = m_sector(like_states, 0.0)
    flipped = np.array(sector.matrix)
    flipped[4] = -flipped[4]
    block = BasisTransform(
        sector.states, sector.column_states, flipped, sector.system
    )
    base = classify(moment_matrix(sector), DegeneracySpec.isolated(6))
    rephased = classify(moment_matrix(block), DegeneracySpec.isolated(6))
    for a, b in zip(base.states, rephased.states):
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


@pytest.mark.parametrize("grid", [
    np.linspace(-1.0, 1.0, 20),  # origin inside
    np.array([0.5, 1.0]),        # origin before the grid
    np.array([-1.0, -0.5]),      # origin after the grid
])
def test_level_curves_grid_without_zero(grid, like_states):
    # tracked from an inserted B = 0, which the result leaves out
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

    b = curves.b_values
    mean = -gap / 2
    root = np.sqrt((gap / 2) ** 2 + (2.0 * b) ** 2)
    assert np.max(np.abs(curves.curve("|1,0⟩") - (mean + root))) <= 1e-10
    assert np.max(np.abs(curves.curve("|0,0⟩") - (mean - root))) <= 1e-10
    assert np.max(np.abs(curves.curve("|1,1⟩"))) <= 1e-10
    assert np.max(np.abs(curves.curve("|1,-1⟩"))) <= 1e-10


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


def test_basis_independence(like_states, pos_states):
    matrix_like = moment_matrix(full_transform(like_states)).entries
    matrix_pos = moment_matrix(full_transform(pos_states)).entries
    for b in (-1.5, -0.25, 0.4, 2.0):
        ev_like = np.linalg.eigvalsh(-b * matrix_like)
        ev_pos = np.linalg.eigvalsh(-b * matrix_pos)
        assert np.max(np.abs(ev_like - ev_pos)) <= 1e-10


# ---------------------------------------------------------------------------
# degeneracy specs


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
