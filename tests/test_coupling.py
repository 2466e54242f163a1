"""Coupled bases: golden transforms, completeness, labels, exchange symmetry."""

import math
import re

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    Species,
    SpinSystem,
    classify_exchange,
    couple,
    full_transform,
    m_sector,
    scheme_overlap,
)

from dense_operators import (
    ProductState,
    exchange_operator,
    pauli_site,
    total_spin_squared,
    total_spin_z,
)

DIPOS = SpinSystem.dipositronium()
LIKE = CouplingTree.like_pairs(DIPOS)
POS = CouplingTree.positronium_pairs(DIPOS)

SQ2 = 1 / math.sqrt(2)
SQ23 = math.sqrt(2 / 3)
SQ3 = 1 / math.sqrt(3)

# coupled-basis blocks in closed form, rows over ascending-index product
# columns of each sector
LIKE_M1 = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5, -0.5],
    [SQ2, 0.0, -SQ2, 0.0],
    [0.0, SQ2, 0.0, -SQ2],
])
LIKE_M1_LABELS = ("|2,1[2,2]⟩", "|1,1[2,2]⟩",
                  "|1,1[1,0]⟩", "|1,1[0,1]⟩")

LIKE_M0 = 0.5 * np.array([
    [1, 0, 1, -1, 0, -1],
    [1, 0, -1, -1, 0, 1],
    [1, 0, -1, 1, 0, -1],
    [SQ23, SQ23, SQ23, SQ23, SQ23, SQ23],
    [0, math.sqrt(2), 0, 0, -math.sqrt(2), 0],
    [SQ3, -2 * SQ3, SQ3, SQ3, -2 * SQ3, SQ3],
])
LIKE_M0_LABELS = ("|1,0[0,1]⟩", "|0,0[0,0]⟩", "|1,0[1,0]⟩",
                  "|2,0[2,2]⟩", "|1,0[2,2]⟩", "|0,0[2,2]⟩")

POS_M1 = np.array([
    [0.5, 0.5, 0.5, 0.5],
    [0.5, 0.5, -0.5, -0.5],
    [SQ2, -SQ2, 0.0, 0.0],
    [0.0, 0.0, SQ2, -SQ2],
])
POS_M1_LABELS = ("|2,1(1,1)⟩", "|1,1(1,1)⟩",
                 "|1,1(1,0)⟩", "|1,1(0,1)⟩")


def assert_rows_match_up_to_sign(actual, expected, expected_signs=None,
                                 tol=1e-12):
    """Each row must equal its golden row up to an overall sign."""
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    signs = []
    for row, gold in zip(actual, expected):
        dev_plus = np.max(np.abs(row - gold))
        dev_minus = np.max(np.abs(row + gold))
        assert min(dev_plus, dev_minus) <= tol, (dev_plus, dev_minus)
        signs.append(1 if dev_plus <= dev_minus else -1)
    if expected_signs is not None:
        assert tuple(signs) == tuple(expected_signs)
    return signs


@pytest.fixture(scope="module")
def like_states():
    return couple(DIPOS, LIKE)


@pytest.fixture(scope="module")
def pos_states():
    return couple(DIPOS, POS)


def test_like_pairs_m1_golden(like_states):
    sector = m_sector(like_states, 1.0)
    assert sector.row_labels == LIKE_M1_LABELS
    assert sector.column_labels == (
        "|↑↑↑↓⟩", "|↑↑↓↑⟩",
        "|↑↓↑↑⟩", "|↓↑↑↑⟩",
    )
    assert np.max(np.abs(sector.matrix.imag)) == 0.0
    assert_rows_match_up_to_sign(sector.matrix.real, LIKE_M1, (1, 1, 1, 1))


def test_like_pairs_m0_golden(like_states):
    sector = m_sector(like_states, 0.0)
    assert sector.row_labels == LIKE_M0_LABELS
    # realized per-row phases relative to the printed block are recorded here
    assert_rows_match_up_to_sign(sector.matrix.real, LIKE_M0,
                                 (1, 1, 1, 1, 1, -1))


def test_positronium_pairs_m1_golden(pos_states):
    sector = m_sector(pos_states, 1.0)
    assert sector.row_labels == POS_M1_LABELS
    assert_rows_match_up_to_sign(sector.matrix.real, POS_M1, (1, 1, 1, 1))
    # the two blank entries of rows 3 and 4 are exact zeros
    assert sector.matrix[2, 2] == 0.0 and sector.matrix[2, 3] == 0.0
    assert sector.matrix[3, 0] == 0.0 and sector.matrix[3, 1] == 0.0


@pytest.mark.parametrize("tree", [LIKE, POS], ids=["like", "pos"])
def test_stretched_sectors(tree):
    states = couple(DIPOS, tree)
    top = m_sector(states, 2.0)
    bottom = m_sector(states, -2.0)
    assert len(top.states) == len(bottom.states) == 1
    vec_top = np.zeros(16)
    vec_top[0] = 1.0  # |up up up up>
    vec_bottom = np.zeros(16)
    vec_bottom[15] = 1.0  # |down down down down>
    assert np.max(np.abs(top.states[0].vector - vec_top)) <= 1e-12
    assert np.max(np.abs(bottom.states[0].vector - vec_bottom)) <= 1e-12
    assert np.count_nonzero(top.states[0].vector) == 1
    assert np.count_nonzero(bottom.states[0].vector) == 1


def test_m_minus_one_mirrors_m_plus_one(like_states):
    plus = m_sector(like_states, 1.0)
    minus = m_sector(like_states, -1.0)
    assert [s.total_s for s in minus.states] == [s.total_s for s in plus.states]
    assert [s.intermediate_spins for s in minus.states] == [
        s.intermediate_spins for s in plus.states
    ]
    # map each M=-1 column to the global spin flip of the M=+1 columns
    flip = []
    for col in minus.columns:
        flip.append(plus.columns.tolist().index(col ^ 0b1111))
    reordered = minus.matrix.real[:, np.argsort(flip)]
    # rows agree with the M=+1 block up to per-row signs
    assert_rows_match_up_to_sign(reordered, plus.matrix.real)


def test_example_vectors(like_states, pos_states):
    by_label = {s.label: s for s in like_states}
    vec = by_label["|1,1[1,0]⟩"].vector
    expected = np.zeros(16)
    expected[ProductState((0, 0, 0, 1)).index] = SQ2
    expected[ProductState((0, 1, 0, 0)).index] = -SQ2
    assert np.max(np.abs(vec - expected)) <= 1e-12

    vec = {s.label: s for s in pos_states}["|1,1(1,0)⟩"].vector
    expected = np.zeros(16)
    expected[ProductState((0, 0, 0, 1)).index] = SQ2
    expected[ProductState((0, 0, 1, 0)).index] = -SQ2
    assert np.max(np.abs(vec - expected)) <= 1e-12

    vec = by_label["|2,0[2,2]⟩"].vector
    support = np.flatnonzero(np.abs(vec) > 1e-14)
    assert list(support) == [3, 5, 6, 9, 10, 12]
    assert vec[support].real == pytest.approx([1 / math.sqrt(6)] * 6, abs=1e-12)


@pytest.mark.parametrize("tree", [LIKE, POS], ids=["like", "pos"])
def test_completeness_and_unitarity(tree):
    states = couple(DIPOS, tree)
    assert len(states) == 16
    matrix = full_transform(states).matrix
    dev = np.max(np.abs(matrix @ matrix.conj().T - np.eye(16)))
    assert dev <= 1e-12


@pytest.mark.parametrize("tree", [LIKE, POS], ids=["like", "pos"])
def test_simultaneous_eigenstates(tree):
    s2 = total_spin_squared(DIPOS).matrix
    sz = total_spin_z(DIPOS).matrix
    for state in couple(DIPOS, tree):
        expect_s2 = state.total_s * (state.total_s + 1)
        assert np.max(np.abs(s2 @ state.vector - expect_s2 * state.vector)) <= 1e-10
        assert np.max(np.abs(sz @ state.vector - state.m * state.vector)) <= 1e-10
        assert abs(np.linalg.norm(state.vector) - 1.0) <= 1e-12
        assert abs(state.m) <= state.total_s + 1e-12


def _tree_shapes(lo: int, hi: int):
    """Every binary tree over the sites lo..hi-1, kept in site order."""
    if hi - lo == 1:
        yield lo
    for cut in range(lo + 1, hi):
        for left in _tree_shapes(lo, cut):
            for right in _tree_shapes(cut, hi):
                yield (left, right)


# 1 + 2 + 5 + 14 + 42 shapes for N = 2..6, then trees whose subtrees of
# one shape hold different sites in different orders
SHAPES = [shape for n in range(2, 7) for shape in _tree_shapes(0, n)] + [
    ((3, 0), (1, 2)), ((5, (3, 1)), (0, (2, 4))), (((4, 5), (0, 1)), (3, 2))]


def _subtree_spin_squared(system, sites):
    """Dense S_v^2 of the sites under one node: (1/2 sum sigma_i)^2."""
    total = 0.0
    for axis in ("x", "y", "z"):
        comp = 0.5 * sum(pauli_site(system, axis, k).matrix for k in sites)
        total = total + comp @ comp
    return total


@pytest.mark.parametrize("shape", SHAPES,
                         ids=[str(s).replace(" ", "") for s in SHAPES])
def test_every_node_spin_is_an_eigenvalue_of_its_subtree(shape):
    """Each state is an eigenvector of S_v^2 for every internal node v,
    with the eigenvalue j_v (j_v + 1) of its recorded spin; the operators
    are Kronecker products, independent of the CG recursion."""
    tree = CouplingTree(shape)
    n = len(tree.leaves())
    system = SpinSystem(([Species.ELECTRON, Species.POSITRON] * 3)[:n])
    basis = couple(system, tree)
    vectors = np.array([state.vector for state in basis]).T
    # (sites, spin) of each internal node in post-order, the root last
    nodes = [s.intermediates + ((tree.leaves(), s.total_s),) for s in basis]
    for k in range(n - 1):
        sites = nodes[0][k][0]
        assert all(node[k][0] == sites for node in nodes)
        spins = np.array([node[k][1] for node in nodes])
        s2 = _subtree_spin_squared(system, sites)
        residual = s2 @ vectors - vectors * (spins * (spins + 1))
        assert np.max(np.abs(residual)) <= 1e-12, sites


@pytest.mark.parametrize("tree", [LIKE, POS], ids=["like", "pos"])
def test_multiplet_census(tree):
    states = couple(DIPOS, tree)
    multiplets = {(s.total_s, s.intermediate_spins) for s in states}
    by_spin = {}
    for total_s, _inter in multiplets:
        by_spin[total_s] = by_spin.get(total_s, 0) + 1
    assert by_spin == {2.0: 1, 1.0: 3, 0.0: 2}


def test_positronium_labels():
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    assert [s.label for s in states] == [
        "|1,1⟩", "|1,0⟩", "|0,0⟩", "|1,-1⟩"
    ]


def test_half_integer_labels():
    system = SpinSystem.from_species((Species.ELECTRON,) * 3)
    states = couple(system, CouplingTree.from_nested(((0, 1), 2)))
    labels = {s.label for s in states}
    assert "|3/2,3/2(1)⟩" in labels
    assert "|1/2,-1/2(0)⟩" in labels


def test_tree_validation():
    with pytest.raises(ValueError):
        couple(DIPOS, CouplingTree.from_nested(((0, 1), (2, 2))))
    with pytest.raises(ValueError):
        couple(DIPOS, CouplingTree.from_nested((0, 1)))
    with pytest.raises(ValueError):
        CouplingTree.from_nested(((0, 1, 2), 3))
    with pytest.raises(ValueError):
        CouplingTree.like_pairs(SpinSystem.positronium())


def test_tree_parsing():
    tree = CouplingTree.parse("((e1,e2),(p1,p2))", DIPOS)
    assert tree.root == ((0, 2), (1, 3))
    tree = CouplingTree.parse("( ( e1 , p1 ) , ( e2 , p2 ) )", DIPOS)
    assert tree.root == ((0, 1), (2, 3))
    tree = CouplingTree.parse("((0,2),(1,3))", DIPOS)
    assert tree.root == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        CouplingTree.parse("((e1,e2),(p1,q2))", DIPOS)
    with pytest.raises(ValueError):
        CouplingTree.parse("((e1,e2),(p1,p2)", DIPOS)
    with pytest.raises(ValueError):
        CouplingTree.parse("((e1,e2),(p1,p2))x", DIPOS)
    # a decimal leaf is read as an integer
    tree = CouplingTree.parse("((0,02),(1,3))", DIPOS)
    assert tree.root == ((0, 2), (1, 3))
    for text in ["((e1,e2),(p1,p2)",    # a missing ')'
                 "((e1,e2),(p1,p2))2",  # a trailing leaf
                 "((e1,e2),(p1,p2),)",  # a trailing comma
                 "(e1,e2),(p1,p2)",     # no outer parentheses
                 "()",
                 "((e1,),(p1,p2))",
                 "((e1,e2,p1),p2)",
                 "(" * 1200]:
        message = re.escape(f"malformed tree expression {text!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            CouplingTree.parse(text, DIPOS)


def test_scheme_overlap(like_states, pos_states):
    identity = scheme_overlap(like_states, like_states)
    assert np.max(np.abs(identity - np.eye(16))) <= 1e-12

    overlap = scheme_overlap(like_states, pos_states)
    assert np.max(np.abs(overlap @ overlap.conj().T - np.eye(16))) <= 1e-12
    # overlaps connect only equal (S, M) pairs across the schemes
    for i, a in enumerate(like_states):
        for j, b in enumerate(pos_states):
            if (a.total_s, a.m) != (b.total_s, b.m):
                assert abs(overlap[i, j]) <= 1e-12

    labels_a = [s.label for s in like_states]
    labels_b = [s.label for s in pos_states]
    i = labels_a.index("|2,1[2,2]⟩")
    j = labels_b.index("|2,1(1,1)⟩")
    assert abs(overlap[i, j]) == pytest.approx(1.0, abs=1e-12)

    i = labels_a.index("|1,1[1,0]⟩")
    j = labels_b.index("|1,1(1,0)⟩")
    # product-basis oracle for the same overlap
    a_vec = np.zeros(16)
    a_vec[[1, 4]] = [SQ2, -SQ2]
    b_vec = np.zeros(16)
    b_vec[[1, 2]] = [SQ2, -SQ2]
    oracle = abs(np.vdot(b_vec, a_vec))
    assert abs(overlap[i, j]) == pytest.approx(oracle, abs=1e-12)
    assert abs(overlap[i, j]) == pytest.approx(0.5, abs=1e-12)


def test_scheme_overlap_9j_oracle(like_states, pos_states):
    # Recoupling (e1 e2)J12 (p1 p2)J34 -> (e1 p1)J13 (e2 p2)J24 at total S:
    # a normalized 9j symbol, up to the phase convention of each basis.
    wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational, sqrt

    half = Rational(1, 2)
    e1, p1, e2, p2 = 0, 1, 2, 3

    def spins(state, pairs):
        by_sites = {frozenset(sites): j for sites, j in state.intermediates}
        return [Rational(round(2 * by_sites[frozenset(p)]), 2) for p in pairs]

    overlap = scheme_overlap(like_states, pos_states)
    for i, a in enumerate(like_states):
        j12, j34 = spins(a, [(e1, e2), (p1, p2)])
        for k, b in enumerate(pos_states):
            j13, j24 = spins(b, [(e1, p1), (e2, p2)])
            expected = 0.0
            if (a.total_s, a.m) == (b.total_s, b.m):
                total = Rational(round(2 * a.total_s), 2)
                expected = float(
                    sqrt((2 * j12 + 1) * (2 * j34 + 1) * (2 * j13 + 1)
                         * (2 * j24 + 1))
                    * wigner.wigner_9j(half, half, j12, half, half, j34,
                                       j13, j24, total)
                )
            assert abs(overlap[i, k]) == pytest.approx(abs(expected),
                                                       abs=1e-12)


def test_scheme_overlap_errors(like_states):
    # a slice of a basis is a plain tuple, not a basis
    with pytest.raises(TypeError, match=r"couple\(\)"):
        scheme_overlap(like_states, like_states[:4])
    with pytest.raises(TypeError, match=r"couple\(\)"):
        scheme_overlap(like_states[:4], like_states[:4])


def test_exchange_operator_properties():
    op = exchange_operator(DIPOS, 0, 2)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) == 0.0
    assert np.max(np.abs(op.matrix @ op.matrix - np.eye(16))) == 0.0
    with pytest.raises(ValueError):
        exchange_operator(DIPOS, 1, 1)
    with pytest.raises(ValueError):
        exchange_operator(DIPOS, 0, 9)
    with pytest.raises(ValueError, match="out of range"):
        exchange_operator(DIPOS, 0, -1)


def test_exchange_classification(like_states, pos_states):
    pairs = [(0, 2), (1, 3)]  # electron swap, positron swap
    by_label = {s.label: s for s in like_states}
    rows = classify_exchange(like_states, pairs)
    table = {s.label: row for s, row in zip(like_states, rows)}
    assert table["|1,1[1,0]⟩"] == [1, -1]
    assert table["|1,1[0,1]⟩"] == [-1, 1]
    assert table["|2,2[2,2]⟩"] == [1, 1]
    assert table["|0,0[0,0]⟩"] == [-1, -1]

    # permutation-matrix oracle agrees
    swap_e = exchange_operator(DIPOS, 0, 2).matrix
    state = by_label["|1,1[1,0]⟩"]
    assert np.max(np.abs(swap_e @ state.vector - state.vector)) <= 1e-10

    # positronium-pairs states are generally not like-particle eigenstates
    rows = classify_exchange(pos_states, pairs)
    table = {s.label: row for s, row in zip(pos_states, rows)}
    assert table["|1,1(1,0)⟩"] == ["mixed", "mixed"]
    assert table["|2,1(1,1)⟩"] == [1, 1]

    # site pairs outside the system are rejected by name
    for bad in ((0, 9), (0, -1)):
        with pytest.raises(ValueError, match=f"site {bad[1]} out of range"):
            classify_exchange(like_states, [bad])
    with pytest.raises(ValueError, match="distinct"):
        classify_exchange(like_states, [(1, 1)])


def test_empty_sector_is_not_an_error(like_states):
    sector = m_sector(like_states, 7.0)
    assert len(sector.states) == 0


# valid projections that no state has: past the top, or odd 2M at even N
@pytest.mark.parametrize("m", [5, 0.5, -1.5])
def test_a_projection_without_states_gives_an_empty_sector(like_states, m):
    sector = m_sector(like_states, m)
    assert len(sector) == 0 and sector.columns.size == 0


@pytest.mark.parametrize("m", [0.3, -1.25, math.nan, math.inf, -math.inf,
                               1e308, "1", None, True, 1j])
def test_m_sector_refuses_an_invalid_projection(like_states, m):
    with pytest.raises(ValueError, match=(
            "^m must be a finite integer or half-integer, got "
            + re.escape(repr(m)) + "$")):
        m_sector(like_states, m)


def test_states_are_immutable(like_states):
    state = like_states[0]
    with pytest.raises(ValueError):
        state.vector[0] = 9.0
    block = full_transform(like_states)
    with pytest.raises(ValueError):
        block.matrix[0, 0] = 9.0
