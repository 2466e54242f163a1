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
    CouplingTree,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    classify_exchange,
    couple,
    full_transform,
    m_sector,
    moment_matrix,
    quadratic_coefficients,
    scheme_overlap,
)
from spinzeeman import coupling, zeeman
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
        text = tree._labels.get(inter_spins)
        if text is None:
            text = ",".join(format_spin(s) for s in inter_spins)
        decoration = tree._brackets[0] + text + tree._brackets[1]
    return f"|{format_spin(total_s)},{format_spin(m)}{decoration}⟩"


def _dense_overlap(basis_a, basis_b):
    """Former ``scheme_overlap``: one complex product over all columns."""
    mat_a = np.array([s.vector for s in basis_a], dtype=complex)
    mat_b = np.array([s.vector for s in basis_b], dtype=complex)
    return mat_a.conj() @ mat_b.T


# subtrees of one shape on different sites, listed in different orders
REPEATED_SHAPES = {
    "atoms-paired": (8, "(((e1,p1),(e2,p2)),((e3,p3),(e4,p4)))"),
    "halves-reversed": (6, "((p3,(p2,p1)),(e1,(e2,e3)))"),
    "pairs-crossed": (4, "((p2,e1),(e2,p1))"),
}


def _cases():
    for n in range(2, 9):
        system = SpinSystem.from_species(ALTERNATING[:n])
        for shape, tree in _trees(ALTERNATING[:n]).items():
            yield f"n{n}-{shape}", system, tree
    yield "like-pairs", DIPOS, CouplingTree.like_pairs(DIPOS)
    yield "positronium-pairs", DIPOS, CouplingTree.positronium_pairs(DIPOS)
    for seed in (1, 2):
        order = np.random.default_rng(seed).permutation(8)
        species = [ALTERNATING[k] for k in order]
        system = SpinSystem.from_species(species)
        for shape, tree in _trees(species).items():
            yield f"n8-seed{seed}-{shape}", system, tree
    for name, (n, text) in REPEATED_SHAPES.items():
        system = SpinSystem.from_species(ALTERNATING[:n])
        yield name, system, CouplingTree.parse(text, system)


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


def _node_sites(node):
    """The sites under each internal node, in post-order."""
    if isinstance(node, int):
        return []
    leaves = CouplingTree(node).leaves()
    return _node_sites(node[0]) + _node_sites(node[1]) + [leaves]


@pytest.mark.parametrize("name, system, tree",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_intermediates_name_the_leaves_of_their_nodes(name, system, tree):
    expected = _node_sites(tree.root)[:-1]
    for state in couple(system, tree):
        assert [sites for sites, _spin in state.intermediates] == expected


def test_basis_transforms_are_real_and_read_only():
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    blocks = [full_transform(states)]
    blocks += [m_sector(states, m) for m in (2.0, 1.0, 0.0, -1.0, -2.0)]
    for block in blocks:
        assert block.matrix.dtype == np.float64
        assert not block.matrix.flags.writeable
    full = blocks[0]
    assert np.array_equal(full.matrix, [s.vector for s in states])
    # the columns are the product indices, in index order
    assert full.columns.dtype == np.int64
    assert not full.columns.flags.writeable
    assert np.array_equal(full.columns, np.arange(16))


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


def test_scheme_overlap_rejects_bases_of_two_systems():
    # product index k puts other particles on other sites in the two
    like = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    grouped = SpinSystem.from_species([Species.ELECTRON, Species.ELECTRON,
                                       Species.POSITRON, Species.POSITRON])
    pairs = couple(grouped, CouplingTree.from_nested(((0, 1), (2, 3))))
    with pytest.raises(ValueError, match=(
            "^bases belong to different systems: e1,p1,e2,p2 vs "
            "e1,e2,p1,p2$")):
        scheme_overlap(like, pairs)


def test_states_of_two_systems_are_rejected():
    like = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    doubled = SpinSystem.dipositronium(mu0=2.0)
    mixed = couple(doubled, CouplingTree.like_pairs(doubled))[:1] + like[1:]
    atom = couple(POSITRONIUM, CouplingTree.positronium_pairs(POSITRONIUM))
    # states of two bases, joined, are a plain tuple and no basis
    for states in (mixed, atom + like):
        for build in (full_transform, lambda states: m_sector(states, 2.0),
                      lambda states: scheme_overlap(states, like),
                      lambda states: classify_exchange(states, [(0, 2)])):
            with pytest.raises(TypeError, match=r"^expected a basis built by "
                               r"couple\(\), got a tuple$"):
                build(states)


def test_coupled_vectors_are_real_and_read_only():
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    for state in states:
        assert state.vector.dtype == np.float64
        assert not state.vector.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        states[0].vector[0] = 5.0


def test_couple_checks_every_norm_at_once(monkeypatch):
    table = coupling._cg_table
    monkeypatch.setattr(coupling, "_cg_table",
                        lambda j1, j2, jj: 1.001 * table(j1, j2, jj))
    for system in (POSITRONIUM, DIPOS):
        # every table is 0.1% too large, so every norm is at least that
        with pytest.raises(ValueError,
                           match=r"^state vector norm 1\.00\d+ deviates from 1$"):
            couple(system, CouplingTree.positronium_pairs(system))


def test_couple_rejects_a_nan_cg_table(monkeypatch):
    table = coupling._cg_table
    monkeypatch.setattr(coupling, "_cg_table", lambda j1, j2, jj: np.full_like(
        table(j1, j2, jj), np.nan))
    for system in (POSITRONIUM, DIPOS):
        # every vector is NaN, so every norm is; a NaN norm fails the check
        with pytest.raises(ValueError,
                           match=r"^state vector norm nan deviates from 1$"):
            couple(system, CouplingTree.positronium_pairs(system))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_basis_constructors_reject_non_finite_amplitudes(bad, monkeypatch):
    # couple, the only basis constructor, checks every norm; one
    # non-finite CG value makes the M=0 triplet's norm non-finite
    def coefficient(*args):
        return bad if args == (0.5, 0.5, 0.5, -0.5, 1.0, 0.0) else \
            cg_coefficient(*args)

    monkeypatch.setattr(coupling, "cg_coefficient", coefficient)
    tree = CouplingTree.positronium_pairs(POSITRONIUM)
    with pytest.raises(ValueError, match=(
            rf"^state vector norm {abs(bad)} deviates from 1$")):
        couple(POSITRONIUM, tree)


def test_cg_tables_are_kept_read_only():
    table = coupling._cg_table(1.0, 0.5, 0.5)
    assert table is coupling._cg_table(1.0, 0.5, 0.5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # rows M = 1/2, -1/2; columns (m1, m2) with m1 major
    expected = np.zeros((2, 6))
    for row, mm in enumerate((0.5, -0.5)):
        for a, m1 in enumerate((1.0, 0.0, -1.0)):
            for b, m2 in enumerate((0.5, -0.5)):
                if m1 + m2 == mm:
                    expected[row, 2 * a + b] = cg_coefficient(
                        1.0, m1, 0.5, m2, 0.5, mm)
    assert np.array_equal(table, expected)


def test_cg_tables_follow_a_replaced_coefficient(monkeypatch):
    calls = []
    monkeypatch.setattr(coupling, "cg_coefficient",
                        lambda *args: calls.append(args) or cg_coefficient(*args))
    table = coupling._cg_table(0.5, 0.5, 1.0)
    assert len(calls) == 4  # one term for M = 1 and -1, two for M = 0
    assert table is coupling._cg_table(0.5, 0.5, 1.0)
    assert len(calls) == 4


@pytest.mark.parametrize("name", ["like-pairs", "n6-atom", "n6-ep"])
def test_rotation_memo_serves_no_stale_spec(name):
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
    # one rotation per spec: classify and quadratic_coefficients share it,
    # and an equal spec, built anew, gets back the same arrays
    matrix = moment_matrix(basis)
    classify(matrix, grouped)
    found = matrix._partners_by_spec[grouped]
    quadratic_coefficients(matrix, grouped)
    assert zeeman._partners(matrix, _spin_grouped(states)) is found
    assert list(matrix._partners_by_spec) == [grouped]
    classify(matrix, isolated)
    assert list(matrix._partners_by_spec) == [grouped, isolated]
    assert matrix._partners_by_spec[grouped] is found
    for array in zeeman._partners(matrix, grouped):
        assert not array.flags.writeable
