"""Real coupled vectors built one multiplet at a time, per-M scheme
overlaps, and the per-spec group rotation kept on a moment matrix, each
against the code it replaced.

The references below are kept only here: the former ``_node_states``, which
summed each m vector of a multiplet from ``np.kron`` products one CG value
at a time, the former per-state label rendering, and the former
``scheme_overlap``, one complex product ``mat_a.conj() @ mat_b.T`` over all
columns.
"""

import numpy as np
import pytest

from spinzeeman import (
    BasisTransform,
    CoupledState,
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    classify,
    couple,
    full_transform,
    m_sector,
    moment_matrix,
    quadratic_coefficients,
    scheme_overlap,
)
from spinzeeman import zeeman
from spinzeeman.cg import cg_coefficient
from spinzeeman.coupling import _site_permutation, format_spin
from test_moment_sectors import ALTERNATING, _spin_grouped, _trees

DIPOS = SpinSystem.dipositronium()
POSITRONIUM = SpinSystem.positronium()


def _kron_node_states(node):
    """Former ``_node_states``: ``vectors[m]`` per multiplet, accumulated
    from ``np.kron`` of the two children's vectors."""
    if isinstance(node, int):
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        return [node], [(0.5, (), {0.5: up, -0.5: down})]
    sites_l, entries_l = _kron_node_states(node[0])
    sites_r, entries_r = _kron_node_states(node[1])
    sites = sites_l + sites_r
    site_key = tuple(sites)
    entries = []
    for j1, inter1, vecs1 in entries_l:
        for j2, inter2, vecs2 in entries_r:
            two_j_max = int(round(2 * (j1 + j2)))
            two_j_min = int(round(2 * abs(j1 - j2)))
            for two_j in range(two_j_max, two_j_min - 1, -2):
                jj = two_j / 2.0
                vectors = {}
                for step in range(two_j + 1):
                    mm = jj - step
                    acc = np.zeros(1 << len(sites))
                    for m1, vec1 in vecs1.items():
                        vec2 = vecs2.get(mm - m1)
                        if vec2 is None:
                            continue
                        coeff = cg_coefficient(j1, m1, j2, mm - m1, jj, mm)
                        if coeff != 0.0:
                            acc += coeff * np.kron(vec1, vec2)
                    vectors[mm] = acc
                entries.append(
                    (jj, inter1 + inter2 + ((site_key, jj),), vectors)
                )
    return sites, entries


def _kron_vectors(system, tree):
    """Reference product-space vectors by (S, M, intermediates)."""
    sites, entries = _kron_node_states(tree.root)
    permutation = _site_permutation(sites, system.n)
    out = {}
    for total_s, inter, vectors in entries:
        for mm, partial in vectors.items():
            full = np.zeros(system.dimension)
            full[permutation] = partial
            out[(total_s, mm, inter[:-1])] = full
    return out


def _render_label(tree, total_s, m, inter_spins):
    """Former label rendering, run once per state."""
    decoration = ""
    if inter_spins:
        text = None
        if tree.intermediate_labels:
            text = tree.intermediate_labels.get(inter_spins)
        if text is None:
            text = ",".join(format_spin(s) for s in inter_spins)
        decoration = tree.brackets[0] + text + tree.brackets[1]
    return f"|{format_spin(total_s)},{format_spin(m)}{decoration}⟩"


def _dense_overlap(basis_a, basis_b):
    """Former ``scheme_overlap``: one complex product over all columns."""
    mat_a = np.array([s.vector for s in basis_a], dtype=complex)
    mat_b = np.array([s.vector for s in basis_b], dtype=complex)
    return mat_a.conj() @ mat_b.T


def _cases():
    for n in range(2, 9):
        system = SpinSystem.from_species(ALTERNATING[:n])
        for shape, tree in _trees(ALTERNATING[:n]).items():
            yield f"n{n}-{shape}", system, tree
    yield "like-pairs", DIPOS, CouplingTree.like_pairs(DIPOS)
    yield "positronium-pairs", DIPOS, CouplingTree.positronium_pairs(DIPOS)


@pytest.mark.parametrize("name, system, tree",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_couple_matches_kron_reference(name, system, tree):
    states = couple(system, tree)
    reference = _kron_vectors(system, tree)
    assert len(reference) == len(states) == system.dimension
    for state in states:
        expected = reference[(state.total_s, state.m, state.intermediates)]
        assert np.array_equal(state.vector, expected), state.label


@pytest.mark.parametrize("name, system, tree",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_labels_match_per_state_rendering(name, system, tree):
    for state in couple(system, tree):
        assert state.label == _render_label(
            tree, state.total_s, state.m, state.intermediate_spins)


def test_basis_transforms_are_real_and_read_only():
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    blocks = [full_transform(states)]
    blocks += [m_sector(states, m) for m in (2.0, 1.0, 0.0, -1.0, -2.0)]
    for block in blocks:
        assert block.matrix.dtype == np.float64
        assert not block.matrix.flags.writeable
    full = blocks[0]
    assert np.array_equal(full.matrix, [s.vector for s in states])
    # complex amplitudes with zero imaginary parts are accepted as real
    copy = BasisTransform(full.states, full.column_states,
                          full.matrix.astype(complex), DIPOS)
    assert copy.matrix.dtype == np.float64
    assert np.array_equal(copy.matrix, full.matrix)
    # a writeable input is copied, so changing it later changes nothing
    source = np.array(full.matrix)
    kept = BasisTransform(full.states, full.column_states, source, DIPOS)
    source[0, 0] = 5.0
    assert kept.matrix[0, 0] == full.matrix[0, 0]


def _preset_pairs():
    like = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    pairs = couple(DIPOS, CouplingTree.positronium_pairs(DIPOS))
    atom = couple(POSITRONIUM, CouplingTree.positronium_pairs(POSITRONIUM))
    swapped = couple(POSITRONIUM,
                     CouplingTree.parse("(p1,e1)", POSITRONIUM))
    return {
        "like-pairs": (like, pairs),
        "pairs-like": (pairs, like),
        "like-like": (like, like),
        "positronium": (atom, swapped),
        "positronium-back": (swapped, atom),
    }


@pytest.mark.parametrize("case", sorted(_preset_pairs()))
def test_scheme_overlap_bit_identical_on_presets(case):
    basis_a, basis_b = _preset_pairs()[case]
    overlap = scheme_overlap(basis_a, basis_b)
    assert overlap.dtype == np.float64
    assert np.array_equal(overlap, _dense_overlap(basis_a, basis_b))


@pytest.mark.parametrize("n", [6, 8])
def test_scheme_overlap_per_sector_at_large_n(n):
    system = SpinSystem.from_species(ALTERNATING[:n])
    trees = _trees(ALTERNATING[:n])
    atom = couple(system, trees["atom"])
    ep = couple(system, trees["ep"])
    overlap = scheme_overlap(atom, ep)
    assert overlap.dtype == np.float64
    assert np.max(np.abs(overlap - _dense_overlap(atom, ep))) <= 1e-14
    # entries between different M are exact zeros, not rounding noise
    m_atom = np.array([s.m for s in atom])
    m_ep = np.array([s.m for s in ep])
    assert np.all(overlap[m_atom[:, None] != m_ep[None, :]] == 0.0)
    assert np.max(np.abs(overlap @ overlap.T - np.eye(1 << n))) <= 1e-12


def test_coupled_vectors_are_real_and_read_only():
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    for state in states:
        assert state.vector.dtype == np.float64
        assert not state.vector.flags.writeable
    # a writeable input is copied, so changing it later changes nothing
    source = np.array([0.0, 1.0, 0.0, 0.0])
    state = CoupledState(0.0, 0.0, (), source, "|0,0⟩", POSITRONIUM)
    assert state.vector.dtype == np.float64
    assert not state.vector.flags.writeable
    source[1] = 5.0
    assert state.vector[1] == 1.0
    # complex input with zero imaginary parts is accepted as real
    state = CoupledState(0.0, 0.0, (), source.astype(complex) / 5.0,
                         "|0,0⟩", POSITRONIUM)
    assert state.vector.dtype == np.float64


def test_coupled_state_rejects_imaginary_amplitudes():
    vector = np.array([0.0, 1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="must be real"):
        CoupledState(0.0, 0.0, (), vector, "|0,0⟩", POSITRONIUM)


def test_scheme_overlap_rejects_state_outside_its_sector():
    states = couple(POSITRONIUM, CouplingTree.positronium_pairs(POSITRONIUM))
    top = next(k for k, s in enumerate(states) if s.m == 1.0)
    # labelled M=1 but half of it lies on |↑↓⟩, an M=0 product state
    leaky = CoupledState(1.0, 1.0, (), np.array([1.0, 1.0, 0.0, 0.0])
                         / np.sqrt(2.0), "|1,1⟩", POSITRONIUM)
    mixed = list(states)
    mixed[top] = leaky
    for pair in ((mixed, states), (states, mixed)):
        with pytest.raises(ValueError, match="M=1 leave their M sector"):
            scheme_overlap(*pair)


@pytest.mark.parametrize("name", ["like-pairs", "n6-atom", "n6-ep"])
def test_rotation_memo_serves_no_stale_spec(name, monkeypatch):
    if name == "like-pairs":
        system, tree = DIPOS, CouplingTree.like_pairs(DIPOS)
    else:
        system = SpinSystem.from_species(ALTERNATING[:6])
        tree = _trees(ALTERNATING[:6])[name.split("-")[1]]
    states = couple(system, tree)
    basis = full_transform(states)
    isolated = DegeneracySpec.isolated(len(states))
    grouped = _spin_grouped(states)
    shared = moment_matrix(basis)
    for spec in (isolated, grouped, isolated, grouped, isolated):
        fresh = moment_matrix(basis)
        assert classify(shared, spec).states == classify(fresh, spec).states
        if spec is grouped:
            assert np.array_equal(quadratic_coefficients(shared, spec),
                                  quadratic_coefficients(fresh, spec))
    # one rotation per spec: classify and quadratic_coefficients share it
    calls = []
    rotate = zeeman._rotate_groups
    monkeypatch.setattr(zeeman, "_rotate_groups",
                        lambda m, spec: calls.append(spec) or rotate(m, spec))
    matrix = moment_matrix(basis)
    classify(matrix, grouped)
    quadratic_coefficients(matrix, grouped)
    classify(matrix, _spin_grouped(states))  # an equal spec, built anew
    assert calls == [grouped]
    classify(matrix, isolated)
    assert calls == [grouped, isolated]
    rotated, moments, mask = zeeman._partners(matrix, grouped)
    for array in (rotated, moments, mask):
        assert not array.flags.writeable
