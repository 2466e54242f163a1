"""Exact symmetries of the census path: the spin flip and Wigner-Eckart.

Flipping every spin maps |alpha S M> to eta |alpha S -M>, with one sign eta
per multiplet, and mu_z to -mu_z.  ``couple`` builds the M < 0 sectors as
that mirror of the M > 0 ones, ``moment_matrix`` takes each M < 0 block as
-D block(M) D, and ``_partners`` solves the states of one total spin once,
from the moment sub-block over M, so grouped verdicts and moments at M and
-M mirror each other exactly.  The signs and the partner states are
computed here from each state's intermediate spins alone.
"""

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    m_sector,
    moment_matrix,
)

from test_moment_sectors import _spin_grouped, _trees

DIPOS = SpinSystem.dipositronium()


def _species(n, seed):
    alternating = [Species.ELECTRON, Species.POSITRON] * n
    return [alternating[k] for k in np.random.default_rng(seed).permutation(n)]


def _cases(sizes, seed=1):
    for n in sizes:
        species = _species(n, seed)
        for shape, tree in _trees(species).items():
            yield f"n{n}-{shape}", SpinSystem(species), tree


def _multiplet(state):
    return state.total_s, state.intermediates


def _flip_sign(state, root):
    """(-1)^(j_a + j_b - j) over every internal node of the tree."""
    spins = dict(state.intermediates)
    spins[tuple(_leaves(root))] = state.total_s

    def spin(node):
        return 0.5 if isinstance(node, int) else spins[tuple(_leaves(node))]

    def sign(node):
        if isinstance(node, int):
            return 1
        left, right = node
        phase = round(spin(left) + spin(right) - spin(node))
        return sign(left) * sign(right) * (-1) ** phase

    return sign(root)


def _leaves(node):
    return [node] if isinstance(node, int) else (_leaves(node[0])
                                                 + _leaves(node[1]))


PRESETS = [("like-pairs", DIPOS, CouplingTree.like_pairs(DIPOS)),
           ("positronium-pairs", DIPOS, CouplingTree.positronium_pairs(DIPOS))]


def _parametrize(cases):
    cases = list(cases)
    return pytest.mark.parametrize("name, system, tree", cases,
                                   ids=[case[0] for case in cases])


@_parametrize(list(_cases(range(2, 11))) + PRESETS)
def test_negative_m_sectors_mirror_positive_ones(name, system, tree):
    """Each M < 0 block is its +M block, each row times its multiplet's
    sign, on the complemented product indices, bit for bit."""
    states = couple(system, tree)
    every = system.dimension - 1
    for m in sorted({s.m for s in states if s.m > 0}):
        plus, minus = m_sector(states, m), m_sector(states, -m)
        rows = {_multiplet(s): k for k, s in enumerate(minus.states)}
        order = [rows[_multiplet(s)] for s in plus.states]
        cols = np.searchsorted(minus.columns, plus.columns ^ every)
        assert np.array_equal(minus.columns[cols], plus.columns ^ every)
        signs = np.array([_flip_sign(s, tree.root) for s in plus.states])
        assert np.array_equal(minus.matrix[np.ix_(order, cols)],
                              signs[:, None] * plus.matrix)


@_parametrize(list(_cases(range(2, 11))) + PRESETS)
def test_basis_keeps_each_states_flip_sign_and_multiplet(name, system,
                                                         tree):
    """``couple`` records each state's eta and multiplet number, and the
    transforms keep them for their states."""
    states = couple(system, tree)
    signs = [_flip_sign(s, tree.root) for s in states]
    assert states._flips.tolist() == signs
    assert not states._flips.flags.writeable
    assert not states._multiplets.flags.writeable
    numbers = {}
    for state, number in zip(states, states._multiplets.tolist()):
        assert numbers.setdefault(_multiplet(state), number) == number
    assert len(set(numbers.values())) == len(numbers)
    assert np.array_equal(full_transform(states)._flips, states._flips)
    for m in sorted({s.m for s in states}) + [system.n]:
        sector = m_sector(states, m)
        rows = [k for k, s in enumerate(states) if s.m == m]
        assert np.array_equal(sector._flips, states._flips[rows])
        assert np.array_equal(sector._multiplets, states._multiplets[rows])


@_parametrize(list(_cases(range(2, 11))) + PRESETS)
def test_negative_m_moment_blocks_mirror_positive_ones(name, system, tree):
    """Each M < 0 block of the moment is -D block(M) D, D the rows' flip
    signs, bit for bit, its zeros +0.0; the diagonals are exact negatives."""
    states = couple(system, tree)
    entries = moment_matrix(full_transform(states)).entries
    index = {(_multiplet(s), s.m): k for k, s in enumerate(states)}
    for m in sorted({s.m for s in states if s.m > 0}):
        plus = [k for k, s in enumerate(states) if s.m == m]
        minus = [index[_multiplet(states[k]), -m] for k in plus]
        signs = np.array([_flip_sign(states[k], tree.root) for k in plus])
        block = entries[np.ix_(plus, plus)]
        mirror = entries[np.ix_(minus, minus)]
        assert mirror.tobytes() == (
            -np.outer(signs, signs) * block + 0.0).tobytes()
        assert np.array_equal(np.diag(mirror), -np.diag(block))


@_parametrize(_cases(range(2, 11)))
def test_spin_sub_blocks_agree_over_m(name, system, tree):
    """Wigner-Eckart: the moment between states of one total spin S at M
    is M R_S, the same R_S at every M != 0."""
    states = couple(system, tree)
    reduced = {}
    for m in sorted({s.m for s in states if s.m != 0}):
        sector = m_sector(states, m)
        entries = moment_matrix(sector).entries
        for spin in {s.total_s for s in sector.states}:
            idx = [k for k, s in enumerate(sector.states)
                   if s.total_s == spin]
            idx.sort(key=lambda k: sector.states[k].intermediates)
            block = entries[np.ix_(idx, idx)] / m
            first = reduced.setdefault(spin, block)
            assert np.max(np.abs(block - first)) <= 1e-13


@_parametrize(_cases(range(4, 11)))
def test_grouped_verdicts_mirror_under_spin_flip(name, system, tree):
    """Under E = S(S+1), a state and its flipped partner, the state of the
    same multiplet at -M, get one class and exactly negated moments.  Where
    their total spin's moment sub-block is rotated (more than one
    multiplet, not already diagonal), the moments are M and -M times one
    eigenvalue.  Elsewhere each keeps the diagonal of its own moment
    block, and the block at -M is the exact mirror of the one at M."""
    states = couple(system, tree)
    matrix = moment_matrix(full_transform(states))
    report = classify(matrix, _spin_grouped(states))
    entries = matrix.entries
    index = {(_multiplet(s), s.m): k for k, s in enumerate(states)}
    rotated = set()
    for spin in {s.total_s for s in states}:
        top = [k for k, s in enumerate(states)
               if s.total_s == spin and s.m == spin]
        block = entries[np.ix_(top, top)]
        if np.max(np.abs(block - np.diag(np.diag(block)))) > 1e-15:
            rotated.add(spin)
    exact = 0
    for state, verdict in zip(states, report.states):
        partner = report.states[index[_multiplet(state), -state.m]]
        assert partner.classification is verdict.classification
        assert partner.moment == -verdict.moment
        exact += state.total_s in rotated
    assert exact or "ep" in name


@pytest.mark.parametrize("shape, calls", [("atom", 3), ("ep", 0)])
def test_grouped_classify_solves_each_spin_once(shape, calls, monkeypatch):
    """At N = 8 the atom tree's spins 1, 2 and 3 each take one ``eigh``,
    over all their M; spin 0 has only M = 0, where the moment is zero, and
    spin 4 has one multiplet.  Every sub-block on the ep tree is already
    diagonal."""
    species = _species(8, 1)
    states = couple(SpinSystem(species), _trees(species)[shape])
    matrix = moment_matrix(full_transform(states))
    solved = []
    eigh = np.linalg.eigh

    def counted(block):
        solved.append(block.shape)
        return eigh(block)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    classify(matrix, _spin_grouped(states))
    assert len(solved) == calls
