"""Coupled bases stored as one block per M sector, against the dense code
they replaced, and the memory a census takes with them.

The references below are kept only here: the former ``couple``, which
built every multiplet over the whole partial space with one CG-table
product, concatenated the multiplets and permuted the columns into one
2^N x 2^N array; the former ``_m_sectors``, which split such an array into
M sectors; the former ``moment_matrix``, which took its sectors from that
split; the former ``scheme_overlap``, which stacked both bases' vectors
before splitting them the same way; and the former ``classify_exchange``,
which compared every 2^N vector with its site-swapped copy.  Blocks, the
dense views built from them, overlaps and exchange verdicts must be
bit-identical to these, and so must moment entries, except the M < 0
blocks that ``moment_matrix`` mirrors from +M: those must be the exact
mirror -D block(M) D of the entries at +M, and within ``MIRROR_BOUND`` of
the former product.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from spinzeeman import (
    BasisTransform,
    CoupledState,
    CouplingTree,
    DegeneracySpec,
    MomentMatrix,
    SpinSystem,
    classify,
    classify_exchange,
    couple,
    full_transform,
    level_curves,
    m_sector,
    moment_matrix,
    quadratic_coefficients,
    scheme_overlap,
)
from spinzeeman import coupling, zeeman
from spinzeeman.coupling import _site_permutation, _swap_permutation
from spinzeeman.system import _projections, product_states_with_m

from dense_operators import moment_diagonal
from test_moment_sectors import ALTERNATING, _spin_grouped, _trees
from test_spin_flip import _flip_sign, _multiplet

DIPOS = SpinSystem.dipositronium()


def _former_node_states(node):
    """Former ``_node_states``: each multiplet's rows over the whole partial
    space, one CG-table product per multiplet."""
    if isinstance(node, int):
        return [node], [(0.5, (), np.eye(2))]
    sites_l, entries_l = _former_node_states(node[0])
    sites_r, entries_r = _former_node_states(node[1])
    sites = sites_l + sites_r
    site_key = tuple(sites)
    entries = []
    for j1, inter1, amps1 in entries_l:
        for j2, inter2, amps2 in entries_r:
            pairs = amps1[:, None, :, None] * amps2[None, :, None, :]
            pairs = pairs.reshape(-1, 1 << len(sites))
            two_j_max = int(round(2 * (j1 + j2)))
            two_j_min = int(round(2 * abs(j1 - j2)))
            for two_j in range(two_j_max, two_j_min - 1, -2):
                jj = two_j / 2.0
                entries.append((jj, inter1 + inter2 + ((site_key, jj),),
                                coupling._cg_table(j1, j2, jj) @ pairs))
    return sites, entries


def _former_couple(system, tree):
    """Former ``couple``: ``(S, M, intermediates)`` of every state in
    ``couple``'s order, and the 2^N x 2^N array of their vectors."""
    sites, entries = _former_node_states(tree.root)
    partial = np.concatenate([amps for _j, _inter, amps in entries])
    basis = np.take(partial, np.argsort(_site_permutation(sites, system.n)),
                    axis=1)
    quantum_numbers, keys = [], []
    for total_s, inter, amps in entries:
        inner = inter[:-1]
        inter_spins = tuple(spin for _sites, spin in inner)
        plain = (-total_s, tuple(-s for s in inter_spins))
        for step in range(amps.shape[0]):
            mm = total_s - step
            fixed = tree._orders.get(mm)
            keys.append((-mm, plain if fixed is None
                         else (fixed.index((total_s, inter_spins)),)))
            quantum_numbers.append((total_s, mm, inner))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [quantum_numbers[k] for k in order], basis[order]


def _former_m_sectors(matrix, row_m, col_m):
    """Former ``_m_sectors``: ``{M: (rows, columns, block)}`` in ascending
    M, the row and column indices of each M and the amplitudes of those rows
    of ``matrix`` on those columns."""
    sectors = {}
    for m in np.unique(row_m):
        rows = np.flatnonzero(row_m == m)
        cols = np.flatnonzero(col_m == m)
        sectors[m] = (rows, cols, np.take(matrix[rows], cols, axis=1))
    return sectors


def _former_moment(system, row_m, columns, matrix):
    """Former ``moment_matrix`` of the rows of ``matrix`` over the product
    states ``columns``: split by ``_m_sectors``, one product per sector,
    then the chop."""
    col_m = _projections(system.n)[columns]
    diag = moment_diagonal(system)[columns]
    products = [
        (rows, (block * diag[cols]) @ block.T)
        for rows, cols, block in _former_m_sectors(
            matrix, row_m, col_m).values()
    ]
    scale = max((np.max(np.abs(p)) for _rows, p in products if p.size),
                default=0.0)
    entries = np.zeros((len(row_m),) * 2)
    for rows, product in products:
        product[np.abs(product) < zeeman.CHOP_TOL * scale] = 0.0
        entries[np.ix_(rows, rows)] = product
    return entries


def _former_overlap(system, m_a, matrix_a, m_b, matrix_b):
    """Former ``scheme_overlap``: both bases stacked, split per M sector."""
    col_m = _projections(system.n)
    sectors_b = _former_m_sectors(matrix_b, m_b, col_m)
    overlap = np.zeros(matrix_a.shape)
    sectors_a = _former_m_sectors(matrix_a, m_a, col_m)
    for m, (rows, _cols, block) in sectors_a.items():
        if m in sectors_b:
            rows_b, _cols, block_b = sectors_b[m]
            overlap[np.ix_(rows, rows_b)] = block @ block_b.T
    return overlap


def _former_exchange(states, pairs):
    """Former ``classify_exchange``: each state's 2^N vector against its
    copy with the bits of two sites swapped."""
    n = states[0].system.n
    permutations = [_swap_permutation(n, i, j) for i, j in pairs]
    results = []
    for state in states:
        vector = state.vector
        row = []
        for perm in permutations:
            swapped = vector[perm]
            if np.max(np.abs(swapped - vector)) <= coupling.EXCHANGE_TOL:
                row.append(+1)
            elif np.max(np.abs(swapped + vector)) <= coupling.EXCHANGE_TOL:
                row.append(-1)
            else:
                row.append("mixed")
        results.append(row)
    return results


def _orders(n):
    """Alternating sites, and one shuffled order of the same species."""
    shuffled = [ALTERNATING[k] for k in
                np.random.default_rng(n).permutation(n)]
    return {"alt": ALTERNATING[:n], "mix": shuffled}


def _cases():
    for n in range(2, 9):
        for order, species in _orders(n).items():
            system = SpinSystem.from_species(species)
            for shape, tree in _trees(species).items():
                yield f"n{n}-{order}-{shape}", system, tree
    yield "like-pairs", DIPOS, CouplingTree.like_pairs(DIPOS)
    yield "positronium-pairs", DIPOS, CouplingTree.positronium_pairs(DIPOS)


def _pairs():
    for n in range(2, 9):
        for order, species in _orders(n).items():
            trees = _trees(species)
            yield (f"n{n}-{order}", SpinSystem.from_species(species),
                   trees["atom"], trees["ep"])
    yield ("presets", DIPOS, CouplingTree.like_pairs(DIPOS),
           CouplingTree.positronium_pairs(DIPOS))


# The largest |entry - former entry| of a mirrored M < 0 block, over the
# largest |former entry|, on the cases here and in test_bit_table (N <= 8).
# Measured: 7.9e-16 on them; on both trees with seeds 1, 2 and 11, 1.4e-15
# up to N = 8, 2.1e-15 up to N = 10 and 7.2e-15 up to N = 12.
MIRROR_BOUND = 2e-15


def _mirrored_reference(entries, expected, states, tree):
    """``expected`` with every M < 0 block whose +M block is among
    ``states`` replaced by -D (the +M block of ``entries``) D, D being the
    states' flip signs computed from their intermediate spins, and zeros
    +0.0; and the largest change that made, over the largest |expected|."""
    index = {(_multiplet(s), s.m): k for k, s in enumerate(states)}
    mirrored = np.array(expected)
    change = 0.0
    for m in sorted({s.m for s in states if s.m < 0}):
        minus = [k for k, s in enumerate(states) if s.m == m]
        plus = [index.get((_multiplet(states[k]), -m)) for k in minus]
        if None in plus:
            continue  # its +M block is not there: multiplied out
        signs = np.array([_flip_sign(states[k], tree.root) for k in minus])
        block = -np.outer(signs, signs) * entries[np.ix_(plus, plus)] + 0.0
        former = expected[np.ix_(minus, minus)]
        change = max(change, np.max(np.abs(block - former)))
        mirrored[np.ix_(minus, minus)] = block
    return mirrored, change / max(np.max(np.abs(expected)), 1e-300)


def _same_moment(entries, expected, states, tree):
    """Moment ``entries`` of ``states``: bit-identical to the former
    ``expected`` but for the mirrored M < 0 blocks, which are exact mirrors
    and within ``MIRROR_BOUND`` of it."""
    mirrored, change = _mirrored_reference(entries, expected, states, tree)
    assert entries.tobytes() == mirrored.tobytes()
    assert change <= MIRROR_BOUND, change


def _same_bits(array, expected):
    """Read-only float64, and the same bytes as ``expected``."""
    assert array.dtype == np.float64
    assert not array.flags.writeable
    assert array.shape == expected.shape
    assert array.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("name, system, tree", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_blocks_match_the_former_dense_basis(name, system, tree):
    states = couple(system, tree)
    quantum_numbers, dense = _former_couple(system, tree)
    assert [(s.total_s, s.m, s.intermediates) for s in states] == \
        quantum_numbers
    for state, expected in zip(states, dense):
        _same_bits(state.vector, expected)
    row_m = np.array([s.m for s in states])
    full = full_transform(states)
    _same_bits(full.matrix, dense)
    everything = np.arange(system.dimension)
    _same_moment(moment_matrix(full).entries,
                 _former_moment(system, row_m, everything, dense),
                 states, tree)
    for m in np.arange(system.n, -system.n - 1, -2) / 2:
        block = m_sector(states, m)
        columns = product_states_with_m(system.n, m)
        expected = dense[row_m == m][:, columns]
        assert np.array_equal(block.columns, columns)
        _same_bits(block.matrix, expected)
        # one sector alone, M < 0 too, is multiplied out
        assert moment_matrix(block).entries.tobytes() == _former_moment(
            system, row_m[row_m == m], columns, expected).tobytes()


@pytest.mark.parametrize("name, system, tree_a, tree_b", list(_pairs()),
                         ids=[p[0] for p in _pairs()])
def test_overlap_matches_the_former_stacked_overlap(name, system, tree_a,
                                                    tree_b):
    bases = [couple(system, tree_a), couple(system, tree_b)]
    dense = [_former_couple(system, tree)[1] for tree in (tree_a, tree_b)]
    m = [np.array([s.m for s in basis]) for basis in bases]
    for a, b in ((0, 1), (1, 0), (0, 0)):
        overlap = scheme_overlap(bases[a], bases[b])
        expected = _former_overlap(system, m[a], dense[a], m[b], dense[b])
        assert overlap.dtype == np.float64
        assert overlap.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, system, tree", list(_cases()),
                         ids=[c[0] for c in _cases()])
def test_exchange_matches_the_former_vector_comparison(name, system, tree):
    states = couple(system, tree)
    # every site pair: like species, and electron-positron swaps
    pairs = list(itertools.combinations(range(system.n), 2))
    verdicts = classify_exchange(states, pairs)
    expected = _former_exchange(states, pairs)
    assert verdicts == expected
    # +1 and -1 stay Python ints, not numpy or bool values
    assert repr(verdicts) == repr(expected)


def test_a_basis_from_couple_is_wrapped_not_copied():
    states = couple(DIPOS, CouplingTree.like_pairs(DIPOS))
    for rows, cols, block in full_transform(states)._sectors:
        state = states[rows[0]]
        assert block is state._block
        assert np.array_equal(cols, state._columns)
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size))
    (_rows, _cols, block), = m_sector(states, 0.0)._sectors
    assert block is next(s for s in states if s.m == 0.0)._block


def _refuse(self):
    raise AssertionError("a dense view was built")


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_census_path_builds_no_dense_vector_or_matrix(shape, monkeypatch):
    species = ALTERNATING[:6]
    system = SpinSystem.from_species(species)
    trees = _trees(species)
    partner = couple(system, trees["ep" if shape == "atom" else "atom"])
    monkeypatch.setattr(CoupledState, "vector", property(_refuse))
    monkeypatch.setattr(BasisTransform, "matrix", property(_refuse))
    monkeypatch.setattr(MomentMatrix, "entries", property(_refuse))
    states = couple(system, trees[shape])
    basis = full_transform(states)
    scheme_overlap(partner, states)
    moments = moment_matrix(basis)
    spec = _spin_grouped(states)
    classify(moments, DegeneracySpec.isolated(len(states)))
    classify(moments, spec)
    quadratic_coefficients(moments, spec)
    classify_exchange(states, list(itertools.combinations(range(6), 2)))
    with pytest.raises(AssertionError, match="dense view"):
        states[0].vector
    with pytest.raises(AssertionError, match="dense view"):
        moments.entries


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_moment_entries_are_built_from_the_blocks_on_each_read(shape,
                                                              monkeypatch):
    species = ALTERNATING[:6]
    system = SpinSystem.from_species(species)
    tree = _trees(species)[shape]
    states = couple(system, tree)
    _numbers, dense = _former_couple(system, tree)
    row_m = np.array([s.m for s in states])
    matrix = moment_matrix(full_transform(states))
    entries = matrix.entries
    assert entries.dtype == np.float64
    assert not entries.flags.writeable
    _same_moment(entries, _former_moment(
        system, row_m, np.arange(system.dimension), dense), states, tree)
    again = matrix.entries
    assert again is not entries and not np.shares_memory(again, entries)
    assert again.tobytes() == entries.tobytes()
    # level_curves works on the blocks and never builds the dense matrix
    reads = []
    built = MomentMatrix.entries.fget

    def counted(self):
        reads.append(self)
        return built(self)

    monkeypatch.setattr(MomentMatrix, "entries", property(counted))
    level_curves(matrix, DegeneracySpec.isolated(matrix.size),
                 np.linspace(-1.0, 1.0, 21))
    assert reads == []


N_MEMORY = 8
DENSE_BYTES = 4 ** N_MEMORY * 8  # one 2^N x 2^N float64 array


def _census_peaks(system, tree, partner):
    """The census task on ``tree``, step by step; per step, the most memory
    it held above what was in use when it began, and for the whole task the
    most above what was in use before it, in 2^N x 2^N float64 arrays."""
    peaks, highest = {}, []

    def step(name, run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        peaks[name] = (peak - start) / DENSE_BYTES
        highest.append(peak)
        return result

    tracemalloc.start()
    try:
        first = tracemalloc.get_traced_memory()[0]
        states = step("couple", lambda: couple(system, tree))
        basis = step("full_transform", lambda: full_transform(states))
        step("scheme_overlap", lambda: scheme_overlap(partner, states))
        moments = step("moment_matrix", lambda: moment_matrix(basis))
        spec = _spin_grouped(states)
        step("classify", lambda: classify(
            moments, DegeneracySpec.isolated(len(states))))
        step("classify grouped", lambda: classify(moments, spec))
        step("quadratic_coefficients",
             lambda: quadratic_coefficients(moments, spec))
    finally:
        tracemalloc.stop()
    return peaks, (max(highest) - first) / DENSE_BYTES


@pytest.mark.parametrize("shape", ["atom", "ep"])
def test_census_task_allocates_only_the_overlap_array(shape):
    species = ALTERNATING[:N_MEMORY]
    system = SpinSystem.from_species(species)
    trees = _trees(species)
    partner = couple(system, trees["ep" if shape == "atom" else "atom"])
    couple(system, trees[shape])  # the CG tables are kept per process
    peaks, task = _census_peaks(system, trees[shape], partner)
    # couple keeps C(2N, N) amplitudes, about a fifth of 4^N at N = 8;
    # scheme_overlap returns one dense array, and moment_matrix keeps only
    # its per-M blocks.  The task peaks near 1.7 arrays (2.2 while the
    # moment matrix kept a dense copy, 4.2 when the bases were dense), so
    # one more dense array anywhere exceeds its bound of 2.
    bounds = {"couple": 1.0, "full_transform": 0.25, "scheme_overlap": 1.5,
              "moment_matrix": 0.5, "classify": 0.5, "classify grouped": 0.5,
              "quadratic_coefficients": 0.5}
    assert {k: peaks[k] for k in bounds if peaks[k] >= bounds[k]} == {}
    assert task < 2.0, task
