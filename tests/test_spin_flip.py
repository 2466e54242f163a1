"""Exact symmetries of the census path: the spin flip and Wigner-Eckart.

Flipping every spin maps |alpha S M> to eta |alpha S -M>, with one sign eta
per multiplet, and mu_z to -mu_z.  ``couple`` builds the M < 0 sectors as
that mirror of the M > 0 ones, ``moment_matrix`` takes each M < 0 block as
-D block(M) D, and ``_partners`` solves the states of one total spin once,
from the moment sub-block over M, so grouped verdicts and moments at M and
-M mirror each other exactly.  The signs and the partner states are
computed here from each state's intermediate spins alone.  ``_partners``
also takes each +M sector, where its mirror rule allows, from the -M
sector; a reference that rotates and scans every sector checks that bit
for bit.
"""

import itertools

import numpy as np
import pytest

from spinzeeman import (
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
    zeeman,
)

from like_spin_oracle import spin_grouped
from test_moment_sectors import _assert_bit_equal, _trees

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
# a single site, whose -1/2 sector is the mirror of its +1/2 one too
SITE = ("n1-site", SpinSystem([Species.ELECTRON]), CouplingTree(0))


def _parametrize(cases):
    cases = list(cases)
    return pytest.mark.parametrize("name, system, tree", cases,
                                   ids=[case[0] for case in cases])


@_parametrize([SITE] + list(_cases(range(2, 13))) + PRESETS)
def test_negative_m_sectors_mirror_positive_ones(name, system, tree):
    """Each M < 0 block is its +M block, each row times its multiplet's
    sign, on the complemented product indices, bit for bit."""
    states = couple(system, tree)
    every = system.dimension - 1
    for m in sorted({s.m for s in states if s.m > 0}):
        plus, minus = m_sector(states, m), m_sector(states, -m)
        rows = {_multiplet(s): k for k, s in enumerate(minus)}
        order = [rows[_multiplet(s)] for s in plus]
        cols = np.searchsorted(minus.columns, plus.columns ^ every)
        assert np.array_equal(minus.columns[cols], plus.columns ^ every)
        signs = np.array([_flip_sign(s, tree.root) for s in plus])
        assert np.array_equal(minus.matrix[np.ix_(order, cols)],
                              signs[:, None] * plus.matrix)


@_parametrize(list(_cases(range(2, 13))) + PRESETS)
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
        for spin in {s.total_s for s in sector}:
            idx = [k for k, s in enumerate(sector)
                   if s.total_s == spin]
            idx.sort(key=lambda k: sector[k].intermediates)
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
    report = classify(matrix, spin_grouped(states))
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
    classify(matrix, spin_grouped(states))
    assert len(solved) == calls


def _scanned_partners(matrix, spec):
    """``_partners`` with every sector rotated and scanned, no sector taken
    as the mirror of another: the reference the mirror rule must equal."""
    states = matrix.basis
    spin = np.array([s.total_s for s in states])
    multiplet = matrix.basis._multiplets
    moments = np.zeros(matrix.size)
    solved, pairs = {}, []
    for m, (rows, block) in matrix._blocks.items():  # ascending M
        moments[rows] = np.diag(block)
        gids = spec.group_of[rows]
        rotated = np.array(block)
        _ids, firsts = np.unique(gids, return_index=True)
        for first in np.sort(firsts):  # the groups by their first row
            local = np.flatnonzero(gids == gids[first])
            if local.size < 2:
                continue
            if local[-1] - local[0] == local.size - 1:
                local = slice(local[0], local[-1] + 1)
            sub = block[local][:, local]
            if np.max(np.abs(sub - np.diag(np.diag(sub)))) <= 1e-15:
                continue
            idx = rows[local]
            if m and np.all(spin[idx] == spin[idx[0]]):
                key, unit = multiplet[idx].tobytes(), m
            else:
                key, unit = (m, first), 1.0
            if key not in solved:
                w, v = np.linalg.eigh(sub / unit)
                _rows, cols = zeeman.linear_sum_assignment(-(v * v))
                solved[key] = w[cols], v[:, cols]
            w, v = solved[key]
            rotated[local] = v.T @ rotated[local]
            rotated[:, local] = rotated[:, local] @ v
            moments[idx] = unit * w
        mask = np.abs(rotated) > zeeman.ZERO_TOL
        mask &= gids[:, None] != gids[None, :]
        i, j = np.nonzero(mask)
        pairs.append((rows[i], rows[j], rotated[i, j]))
    moments[np.abs(moments) <= zeeman.ZERO_TOL] = 0.0
    empty = (np.empty(0, dtype=int),) * 2 + (np.empty(0),)
    return (moments, *map(np.concatenate, zip(empty, *reversed(pairs))))


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("seed", [1, 2, 11])
@pytest.mark.parametrize("n", range(2, 11))
def test_mirrored_sectors_equal_a_scan_bit_for_bit(n, seed, shape,
                                                   fingerprint):
    """On the cases of ``tools/fingerprint.py`` (its site orders, trees and
    four specs: isolated, S(S+1), shuffled and split by the sign of M),
    ``_partners``, +M sectors mirrored where the rule allows, equals the
    reference that rotates and scans every sector, bit for bit, signed
    zeros included."""
    species = _species(n, seed)
    states = couple(SpinSystem(species), fingerprint._trees(species)[shape])
    transform = full_transform(states)
    for spec in fingerprint._specs(states, seed).values():
        _assert_bit_equal(zeeman._partners(moment_matrix(transform), spec),
                          _scanned_partners(moment_matrix(transform), spec))


@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("seed", [1, 2, 11])
@pytest.mark.parametrize("n", range(2, 11))
def test_a_pattern_kept_for_one_spec_serves_every_other(n, seed, shape,
                                                        fingerprint):
    """A moment matrix keeps each scanned sector's nonzero pattern, and
    ``_partners`` filters it by group wherever no group is rotated.  For
    each ordered pair of the four specs of ``tools/fingerprint.py``, called
    in that order on one matrix, both equal the reference that scans every
    sector densely, bit for bit, signed zeros included."""
    species = _species(n, seed)
    states = couple(SpinSystem(species), fingerprint._trees(species)[shape])
    transform = full_transform(states)
    specs = fingerprint._specs(states, seed)
    expected = {name: _scanned_partners(moment_matrix(transform), spec)
                for name, spec in specs.items()}
    for first, second in itertools.permutations(specs, 2):
        matrix = moment_matrix(transform)
        assert matrix._patterns == {}
        for name in (first, second):
            _assert_bit_equal(zeeman._partners(matrix, specs[name]),
                              expected[name])
            if name == "isolated":  # every sector at M <= 0 is scanned
                scanned = [m for m in matrix._blocks if m <= 0]
                assert sorted(matrix._patterns) == scanned


def test_only_partners_build_the_patterns():
    """``moment_matrix``, ``entries`` and ``level_curves`` build no
    pattern; ``classify`` builds one per scanned sector, once."""
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    matrix = moment_matrix(full_transform(states))
    spec = DegeneracySpec.isolated(len(states))
    matrix.entries
    level_curves(matrix, spec, [-0.5, 0.0, 0.5])
    assert matrix._patterns == {}
    classify(matrix, spec)
    patterns = dict(matrix._patterns)
    assert len(patterns) == 3  # M = -2, -1, 0
    classify(matrix, spin_grouped(states))
    assert all(matrix._patterns[k] is patterns[k] for k in patterns)


def _by_sign_and_spin(states, order):
    """Each spin's states split into groups of M < 0, M = 0 and M > 0,
    listed by ``order`` of (sign of M, S), at E = S(S+1)."""
    groups = {}
    for k, state in enumerate(states):
        groups.setdefault((np.sign(state.m), state.total_s), []).append(k)
    keys = sorted(groups, key=order)
    return DegeneracySpec(tuple(tuple(groups[key]) for key in keys),
                          tuple(s * (s + 1) for _sign, s in keys),
                          allow_shared_energies=True)


def _opposite_orders(states):
    """The groups of M < 0 listed by descending S, those of M > 0 by
    ascending S.  Groups are rotated in the order of their first row, not
    as listed, so the rule mirrors these +M sectors all the same."""
    return _by_sign_and_spin(states, lambda key: (key[0], key[0] * key[1]))


def _other_partition(states):
    """One group per spin at M <= 0, every state of M > 0 its own group:
    the partitions at -M and +M differ, so no +M sector is mirrored."""
    spec = _by_sign_and_spin(states, lambda key: key)
    groups = [g for g in spec.groups if states[g[0]].m <= 0]
    groups += [(k,) for k, state in enumerate(states) if state.m > 0]
    return DegeneracySpec(tuple(groups), tuple(range(len(groups))))


def _mixed_spins(states):
    """Spins S = 0 and 1 (or 1/2 and 3/2) in one group, 2 and 3 in the
    next, and so on: each sub-block is solved alone, so no +M sector with
    a rotated group is mirrored."""
    groups = {}
    for k, state in enumerate(states):
        groups.setdefault(int(state.total_s) // 2, []).append(k)
    return DegeneracySpec(tuple(tuple(g) for g in groups.values()),
                          tuple(map(float, groups)))


@pytest.mark.parametrize("refused", [_opposite_orders, _other_partition,
                                     _mixed_spins])
@_parametrize(_cases(range(4, 11)))
def test_sectors_the_rule_refuses_equal_a_scan(name, system, tree, refused):
    """Where a condition of the mirror rule fails, the +M sector is rotated
    and scanned; where only the listing order differs between -M and +M,
    it is mirrored.  Either way ``_partners`` equals the reference bit for
    bit."""
    states = couple(system, tree)
    transform = full_transform(states)
    spec = refused(states)
    _assert_bit_equal(zeeman._partners(moment_matrix(transform), spec),
                      _scanned_partners(moment_matrix(transform), spec))


@pytest.mark.parametrize("size", [1e-300, 1e-6])
@_parametrize(_cases(range(4, 11)))
def test_mirror_takes_whatever_vectors_eigh_returns(name, system, tree,
                                                   size, monkeypatch):
    """An ``eigh`` that adds ``size`` to every entry of its first vector,
    on zero entries too: the +M sectors reuse the vectors solved at -M, so
    ``_partners`` still equals the reference under the same ``eigh``."""
    states = couple(system, tree)
    transform = full_transform(states)
    spec = spin_grouped(states)
    eigh = np.linalg.eigh
    solves = []

    def shifted(block):
        w, v = eigh(block)
        v[:, 0] += size
        solves.append(block.shape)
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    _assert_bit_equal(zeeman._partners(moment_matrix(transform), spec),
                      _scanned_partners(moment_matrix(transform), spec))
    assert solves or "ep" in name


@_parametrize(list(_cases(range(2, 13))) + PRESETS)
def test_flip_sign_is_fixed_by_the_total_spin(name, system, tree):
    """The phases (-1)^(j_a + j_b - j) of a tree's nodes multiply to
    (-1)^(N/2 - S), so the rows of one total spin share one flip sign,
    which the mirror rule of ``_partners`` relies on.  The basis keeps
    twice each state's S, and the transforms keep it for their states."""
    states = couple(system, tree)
    two_s = np.array([round(2 * s.total_s) for s in states])
    assert np.array_equal(states._two_s, two_s)
    assert not states._two_s.flags.writeable
    odd = (system.n - two_s) // 2 % 2
    assert np.array_equal(states._flips, np.where(odd, -1.0, 1.0))
    assert np.array_equal(full_transform(states)._two_s, two_s)
    for m in sorted({s.m for s in states}) + [system.n]:
        rows = [k for k, s in enumerate(states) if s.m == m]
        assert np.array_equal(m_sector(states, m)._two_s, two_s[rows])
