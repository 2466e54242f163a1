"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines interleaved with the test names.
"""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinzeeman import (
    Classification,
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    cg_coefficient,
    classify,
    classify_exchange,
    couple,
    full_transform,
    level_curves,
    m_sector,
    moment_matrix,
    quadratic_coefficients,
)

from dense_operators import (
    magnetic_moment_z,
    pauli_site,
    total_spin_squared,
    total_spin_z,
)

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12

SQ2 = 1 / math.sqrt(2)
SQ23 = math.sqrt(2 / 3)
SQ3 = 1 / math.sqrt(3)

LIKE_M1 = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5, -0.5],
    [SQ2, 0.0, -SQ2, 0.0],
    [0.0, SQ2, 0.0, -SQ2],
])
LIKE_M0 = 0.5 * np.array([
    [1, 0, 1, -1, 0, -1],
    [1, 0, -1, -1, 0, 1],
    [1, 0, -1, 1, 0, -1],
    [SQ23, SQ23, SQ23, SQ23, SQ23, SQ23],
    [0, math.sqrt(2), 0, 0, -math.sqrt(2), 0],
    [SQ3, -2 * SQ3, SQ3, SQ3, -2 * SQ3, SQ3],
])
LIKE_M1_MOMENT = 2.0 * np.array(
    [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1.0]]
)
LIKE_M0_MOMENT = -4.0 * np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, SQ3, 0],
    [0, 0, 0, SQ3, 0, SQ23],
    [0, 0, 0, 0, SQ23, 0],
])
POS_M1 = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, -0.5, -0.5],
    [SQ2, -SQ2, 0.0, 0.0],
    [0.0, 0.0, SQ2, -SQ2],
])
POS_M1_MOMENT = 2.0 * np.array([
    [0, 0, -SQ2, -SQ2],
    [0, 0, -SQ2, SQ2],
    [-SQ2, -SQ2, 0, 0],
    [-SQ2, SQ2, 0, 0],
])

DIPOS = SpinSystem.dipositronium()
LIKE_STATES = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
POS_STATES = couple(DIPOS, CouplingTree.positronium_pairs(DIPOS))


def _rows_match_up_to_sign(actual, expected, tol=TOL):
    for row, gold in zip(np.asarray(actual), np.asarray(expected)):
        if min(np.max(np.abs(row - gold)), np.max(np.abs(row + gold))) > tol:
            return False
    return True


def _passed(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_01_golden_basis_transform_m_pm1():
    sector = m_sector(LIKE_STATES, 1.0)
    assert _rows_match_up_to_sign(sector.matrix.real, LIKE_M1)
    minus = m_sector(LIKE_STATES, -1.0)
    flip = []
    for col in minus.columns:
        flipped = col ^ 0b1111  # every spin reversed
        flip.append(sector.columns.tolist().index(flipped))
    mirrored = minus.matrix.real[:, np.argsort(flip)]
    assert _rows_match_up_to_sign(mirrored, sector.matrix.real)
    assert [s.total_s for s in minus] == [s.total_s for s in sector]
    _passed(1, "like-pairs M=+1 block matches the 4x4 transform; "
               "M=-1 mirrors it under global spin flip")


def test_criterion_02_golden_moment_matrix_m1():
    plus = moment_matrix(m_sector(LIKE_STATES, 1.0)).entries
    assert np.max(np.abs(plus - LIKE_M1_MOMENT)) <= TOL
    minus = moment_matrix(m_sector(LIKE_STATES, -1.0)).entries
    assert np.max(np.abs(np.diag(minus) + np.diag(plus))) <= TOL
    _passed(2, "M=1 moment matrix reproduced; M=-1 diagonal negated")


def test_criterion_03_golden_m0_block():
    sector = m_sector(LIKE_STATES, 0.0)
    assert _rows_match_up_to_sign(sector.matrix.real, LIKE_M0)
    entries = moment_matrix(sector).entries
    assert np.max(np.abs(entries - LIKE_M0_MOMENT)) <= TOL
    assert not entries[:3].any()
    _passed(3, "M=0 transform and -4mu0 moment block reproduced; "
               "first three moment rows identically zero")


def test_criterion_04_stretched_states():
    for states in (LIKE_STATES, POS_STATES):
        top = m_sector(states, 2.0)
        bottom = m_sector(states, -2.0)
        assert len(top) == len(bottom) == 1
        assert np.count_nonzero(top[0].vector) == 1
        assert abs(top[0].vector[0] - 1.0) <= TOL
        assert np.count_nonzero(bottom[0].vector) == 1
        assert abs(bottom[0].vector[15] - 1.0) <= TOL
        assert moment_matrix(top).entries[0, 0] == 0.0
        assert moment_matrix(bottom).entries[0, 0] == 0.0
    _passed(4, "M=+2/-2 states are the aligned kets with exactly zero moment")


def test_criterion_05_appendix_scheme():
    sector = m_sector(POS_STATES, 1.0)
    assert _rows_match_up_to_sign(sector.matrix.real, POS_M1)
    entries = moment_matrix(sector).entries
    assert np.max(np.abs(entries - POS_M1_MOMENT)) <= TOL
    assert np.max(np.abs(np.diag(entries))) == 0.0
    # blanks of the printed transform block confirmed zero by the oracle
    mu = magnetic_moment_z(DIPOS)
    for i, j in [(2, 2), (2, 3), (3, 0), (3, 1)]:
        assert sector.matrix[i, j] == 0.0
    oracle = sector.matrix.conj() @ mu.matrix[
        np.ix_(sector.columns, sector.columns)
    ] @ sector.matrix.T
    assert np.max(np.abs(oracle - entries)) <= TOL
    _passed(5, "positronium-pairs M=1 transform and zero-diagonal moment "
               "matrix reproduced, blanks oracle-confirmed zero")


def test_criterion_06_classification_census():
    report = classify(
        moment_matrix(full_transform(LIKE_STATES)), DegeneracySpec.isolated(16)
    )
    linear = {s.label: s.linear_slope for s in report.states
              if s.classification is Classification.LINEAR}
    assert set(linear) == {
        "|1,1[1,0]⟩", "|1,1[0,1]⟩",
        "|1,-1[1,0]⟩", "|1,-1[0,1]⟩",
    }
    assert sorted(linear.values()) == pytest.approx([-2, -2, 2, 2], abs=TOL)
    by_label = {s.label: s for s in report.states}
    m0_none = [lab for lab in ("|1,0[0,1]⟩", "|1,0[1,0]⟩",
                               "|0,0[0,0]⟩")
               if by_label[lab].classification is Classification.NONE]
    m0_quad = [lab for lab in ("|2,0[2,2]⟩", "|1,0[2,2]⟩",
                               "|0,0[2,2]⟩")
               if by_label[lab].classification is Classification.QUADRATIC]
    assert len(m0_none) == 3 and len(m0_quad) == 3

    pos_report = classify(
        moment_matrix(full_transform(POS_STATES)), DegeneracySpec.isolated(16)
    )
    assert pos_report.counts()[Classification.LINEAR] == 0
    _passed(6, "like-pairs: exactly 4 LINEAR states at slopes +/-2mu0 and a "
               "3+3 NONE/QUADRATIC split at M=0; positronium-pairs: 0 LINEAR")


def test_criterion_07_positronium_regression():
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    labels = [s.label for s in states]
    matrix = moment_matrix(full_transform(states))
    assert np.max(np.abs(np.diag(matrix.entries))) == 0.0
    i, j = labels.index("|1,0⟩"), labels.index("|0,0⟩")
    assert matrix.entries[i, j] == pytest.approx(-2.0, abs=TOL)

    gap = 0.75
    spec = DegeneracySpec.from_energy_map(labels, {"|0,0⟩": -gap})
    grid = np.linspace(-2.0, 2.0, 17)
    curves = level_curves(matrix, spec, grid)
    curve = dict(zip(curves.labels, curves.energies.T))
    b = curves.b_values
    root = np.sqrt((gap / 2) ** 2 + (2.0 * b) ** 2)
    assert np.max(np.abs(curve["|1,0⟩"] - (-gap / 2 + root))) <= 1e-10
    assert np.max(np.abs(curve["|0,0⟩"] - (-gap / 2 - root))) <= 1e-10
    assert np.max(np.abs(curve["|1,1⟩"])) <= 1e-10
    assert np.max(np.abs(curve["|1,-1⟩"])) <= 1e-10
    _passed(7, "positronium: zero-diagonal moment, -2mu0 singlet-triplet "
               "coupling, closed-form M=0 curves, flat M=+/-1 curves")


def test_criterion_08_property_suites():
    # operator commutation relations
    for (i, j) in itertools.combinations(range(4), 2):
        for a, b in itertools.product("xyz", repeat=2):
            comm = (pauli_site(DIPOS, a, i).matrix @ pauli_site(DIPOS, b, j).matrix
                    - pauli_site(DIPOS, b, j).matrix @ pauli_site(DIPOS, a, i).matrix)
            assert np.max(np.abs(comm)) <= TOL
    s2 = total_spin_squared(DIPOS).matrix
    sz = total_spin_z(DIPOS).matrix
    mu = magnetic_moment_z(DIPOS).matrix
    assert np.max(np.abs(s2 @ sz - sz @ s2)) <= TOL
    assert np.max(np.abs(mu @ sz - sz @ mu)) <= TOL
    assert np.max(np.abs(mu @ s2 - s2 @ mu)) > 0.1

    # CG orthogonality on the half-integer grid up to j = 2
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    for j1, j2 in itertools.product(grid, repeat=2):
        m1s = [j1 - k for k in range(int(round(2 * j1)) + 1)]
        m2s = [j2 - k for k in range(int(round(2 * j2)) + 1)]
        js = [two_j / 2 for two_j in range(int(round(2 * abs(j1 - j2))),
                                           int(round(2 * (j1 + j2))) + 1, 2)]
        pairs = [(jj, jj - k) for jj in js
                 for k in range(int(round(2 * jj)) + 1)]
        for (ja, ma), (jb, mb) in itertools.combinations_with_replacement(
                pairs, 2):
            total = sum(
                cg_coefficient(j1, m1, j2, m2, ja, ma)
                * cg_coefficient(j1, m1, j2, m2, jb, mb)
                for m1 in m1s for m2 in m2s
            )
            expected = 1.0 if (ja, ma) == (jb, mb) else 0.0
            assert abs(total - expected) <= TOL

    # basis unitarity for both trees and oracle equivalence of every block
    for states in (LIKE_STATES, POS_STATES):
        full = full_transform(states)
        assert np.max(np.abs(full.matrix @ full.matrix.conj().T
                             - np.eye(16))) <= TOL
        for m in (2.0, 1.0, 0.0, -1.0, -2.0):
            block = m_sector(states, m)
            cols = block.columns
            oracle = block.matrix.conj() @ mu[np.ix_(cols, cols)] @ block.matrix.T
            assert np.max(np.abs(moment_matrix(block).entries - oracle)) <= TOL
        # simultaneous eigenstates
        for state in states:
            target = state.total_s * (state.total_s + 1)
            assert np.max(np.abs(s2 @ state.vector
                                 - target * state.vector)) <= 1e-10
            assert np.max(np.abs(sz @ state.vector
                                 - state.m * state.vector)) <= 1e-10
        # multiplet census: one S=2, three S=1, two S=0
        multiplets = {(s.total_s, s.intermediates) for s in states}
        census = {}
        for total_s, _inter in multiplets:
            census[total_s] = census.get(total_s, 0) + 1
        assert census == {2.0: 1, 1.0: 3, 0.0: 2}

    # trace and sum rules
    assert abs(np.trace(mu)) == 0.0
    full_report = classify(
        moment_matrix(full_transform(LIKE_STATES)), DegeneracySpec.isolated(16)
    )
    assert sum(s.linear_slope for s in full_report.states) == pytest.approx(
        0.0, abs=TOL
    )
    sector = m_sector(LIKE_STATES, 1.0)
    matrix = moment_matrix(sector)
    pair_spec = DegeneracySpec(((0, 1), (2,), (3,)), (0.0, 0.0, 0.0),
                               allow_shared_energies=True)
    pair_report = classify(matrix, pair_spec)
    assert sum(s.linear_slope for s in pair_report.states[:2]) == pytest.approx(
        -matrix.entries[:2, :2].trace().real, abs=TOL
    )

    # finite-difference slope agreement for every LINEAR state
    spec = DegeneracySpec.isolated(4)
    report = classify(matrix, spec)
    step = 1e-6 * np.max(np.abs(matrix.entries))
    curves = level_curves(matrix, spec, np.array([-step, 0.0, step]))
    checked_slopes = 0
    for k, state in enumerate(report.states):
        if state.classification is Classification.LINEAR:
            fd = (curves.energies[2, k] - curves.energies[0, k]) / (2 * step)
            assert fd == pytest.approx(state.linear_slope, rel=1e-5)
            checked_slopes += 1
    assert checked_slopes == 2

    # finite-difference curvature agreement with the quadratic coefficients
    system = SpinSystem.positronium()
    pstates = couple(system, CouplingTree.positronium_pairs(system))
    plabels = [s.label for s in pstates]
    pmatrix = moment_matrix(full_transform(pstates))
    pspec = DegeneracySpec.from_energy_map(plabels, {"|0,0⟩": -1.0})
    coeffs = dict(zip(plabels, quadratic_coefficients(pmatrix, pspec)))
    assert coeffs["|1,0⟩"] == pytest.approx(4.0, abs=TOL)
    h = 1e-3
    pcurves = level_curves(pmatrix, pspec, np.array([-h, 0.0, h]))
    for label in ("|1,0⟩", "|0,0⟩"):
        k = plabels.index(label)
        curv = (pcurves.energies[2, k] - 2 * pcurves.energies[1, k]
                + pcurves.energies[0, k]) / h**2
        assert curv / 2 == pytest.approx(coeffs[label], rel=1e-4)
    _passed(8, "commutators, CG orthogonality, unitarity, oracle "
               "equivalence, eigenstate checks, census, trace/sum rules, "
               "finite-difference slope and curvature agreement")


def test_criterion_09_exchange_symmetry():
    pairs = [(0, 2), (1, 3)]  # electron swap, positron swap
    rows = classify_exchange(LIKE_STATES, pairs)
    table = {s.label: tuple(row) for s, row in zip(LIKE_STATES, rows)}
    assert table["|1,1[1,0]⟩"] == (1, -1)

    report = classify(
        moment_matrix(full_transform(LIKE_STATES)), DegeneracySpec.isolated(16)
    )
    linear = {s.label for s in report.states
              if s.classification is Classification.LINEAR}

    def one_minority_spin(state):
        support = np.flatnonzero(np.abs(state.vector) > 1e-12)
        return all(
            bin(int(idx)).count("1") in (1, 3) for idx in support
        )

    mixed = {
        s.label
        for s, row in zip(LIKE_STATES, rows)
        if tuple(row) in ((1, -1), (-1, 1)) and one_minority_spin(s)
    }
    assert mixed == linear
    _passed(9, "the four LINEAR states are exactly the (+1,-1)/(-1,+1) "
               "exchange states built from three-up-one-down kets")


def test_criterion_10_cli_snapshots():
    cases = [
        (("basis", "--system", "dipositronium", "--scheme", "like-pairs",
          "--m", "1", "--format", "table"), "basis_like_m1.txt"),
        (("moment", "--system", "dipositronium", "--scheme",
          "positronium-pairs", "--m", "1"), "moment_pospairs_m1.txt"),
        (("classify", "--system", "dipositronium", "--scheme", "like-pairs"),
         "classify_like.txt"),
    ]
    for args, golden in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "spinzeeman", *args], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_bytes()
    _passed(10, "all three CLI invocations byte-match their golden outputs")
