"""Product-index bit helpers against the per-index loops they replace.

Each reference below decodes one product index at a time, the most
significant bit being the leftmost particle, through the former
``ProductState`` object kept in ``dense_operators``.  The vectorized helpers
and the index columns of ``BasisTransform`` read the shared bit table
instead; their integer arithmetic is unchanged, so the results must be equal
exactly.  The moment entries ``moment_matrix`` mirrors from +M to -M are
held to the mirror bit for bit and to the reference within a bound
(``test_sector_blocks._same_moment``).
"""

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    Species,
    SpinSystem,
    couple,
    full_transform,
    m_sector,
    moment_matrix,
)
from spinzeeman import zeeman
from spinzeeman.coupling import _site_permutation, _swap_permutation
from spinzeeman.system import product_states_with_m

from dense_operators import ProductState, moment_diagonal
from test_moment_sectors import ALTERNATING, _trees
from test_sector_blocks import _former_m_sectors, _same_moment

SIZES = range(1, 7)


def moment_diagonal_loop(system):
    signs = system.moment_signs()
    diag = np.empty(system.dimension)
    for index in range(system.dimension):
        bits = ProductState.from_index(index, system.n).bits
        diag[index] = system.mu0 * sum(
            s * (1 - 2 * b) for s, b in zip(signs, bits)
        )
    return diag


def product_states_with_m_loop(n, m):
    out = []
    for index in range(1 << n):
        state = ProductState.from_index(index, n)
        if state.m == m:
            out.append(state)
    return out


def site_permutation_loop(sites, n):
    target = np.empty(1 << n, dtype=np.int64)
    for p in range(1 << n):
        q = 0
        for k, s in enumerate(sites):
            bit = (p >> (len(sites) - 1 - k)) & 1
            q |= bit << (n - 1 - s)
        target[p] = q
    return target


def swap_permutation_loop(n, i, j):
    perm = np.empty(1 << n, dtype=np.int64)
    for index in range(1 << n):
        bi = (index >> (n - 1 - i)) & 1
        bj = (index >> (n - 1 - j)) & 1
        swapped = index
        if bi != bj:
            swapped ^= (1 << (n - 1 - i)) | (1 << (n - 1 - j))
        perm[index] = swapped
    return perm


@pytest.mark.parametrize("n", SIZES)
def test_moment_diagonal_matches_loop(n):
    rng = np.random.default_rng(n)
    species = [Species.ELECTRON if b else Species.POSITRON
               for b in rng.integers(0, 2, n)]
    system = SpinSystem.from_species(species, mu0=0.37)
    assert np.array_equal(moment_diagonal(system), moment_diagonal_loop(system))


@pytest.mark.parametrize("n", SIZES)
def test_product_states_with_m_matches_loop(n):
    for m in np.arange(n, -n - 1, -2) / 2:
        indices = product_states_with_m(n, m)
        assert indices.dtype == np.int64
        assert indices.tolist() == [
            s.index for s in product_states_with_m_loop(n, m)]


@pytest.mark.parametrize("n", SIZES)
def test_swap_permutation_matches_loop(n):
    for i in range(n):
        for j in range(n):
            if i != j:
                assert np.array_equal(_swap_permutation(n, i, j),
                                      swap_permutation_loop(n, i, j))


@pytest.mark.parametrize("n", SIZES)
def test_site_permutation_matches_loop(n):
    sites = [int(s) for s in np.random.default_rng(n).permutation(n)]
    assert np.array_equal(_site_permutation(sites, n),
                          site_permutation_loop(sites, n))


def _column_cases():
    yield "n1", SpinSystem.from_species(ALTERNATING[:1]), CouplingTree(0)
    for n in range(2, 9):
        system = SpinSystem.from_species(ALTERNATING[:n])
        for shape, tree in _trees(ALTERNATING[:n]).items():
            yield f"n{n}-{shape}", system, tree


def _per_object_moment(basis):
    """Former ``moment_matrix``: the columns' M and moment diagonal read
    from one ``ProductState`` per column, then one product per M sector and
    the chop."""
    n = basis.system.n
    columns = [ProductState.from_index(c, n) for c in basis.columns.tolist()]
    row_m = np.array([s.m for s in basis])
    col_m = np.array([c.m for c in columns])
    diag = moment_diagonal_loop(basis.system)[[c.index for c in columns]]
    entries = np.zeros((len(basis),) * 2)
    products = [
        (rows, (block * diag[cols]) @ block.T)
        for rows, cols, block in _former_m_sectors(
            basis.matrix, row_m, col_m).values()
    ]
    scale = max((np.max(np.abs(p)) for _rows, p in products if p.size),
                default=0.0)
    for rows, product in products:
        product[np.abs(product) < zeeman.CHOP_TOL * scale] = 0.0
        entries[np.ix_(rows, rows)] = product
    return entries


@pytest.mark.parametrize("name, system, tree", list(_column_cases()),
                         ids=[c[0] for c in _column_cases()])
def test_columns_match_per_object_reference(name, system, tree):
    n = system.n
    states = couple(system, tree)
    blocks = [(None, full_transform(states))]
    # every M of the system, and one beyond it, which has no states
    blocks += [(m, m_sector(states, m))
               for m in np.arange(n + 2, -n - 1, -2) / 2]
    for m, block in blocks:
        assert block.columns.dtype == np.int64
        assert not block.columns.flags.writeable
        expected = (range(1 << n) if m is None
                    else [s.index for s in product_states_with_m_loop(n, m)])
        assert block.columns.tolist() == list(expected)
        assert block.column_labels == tuple(
            ProductState.from_index(c, n).label for c in expected)
        if block:
            _same_moment(moment_matrix(block).entries,
                         _per_object_moment(block), block, tree)
