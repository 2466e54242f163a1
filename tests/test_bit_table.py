"""Product-index bit helpers against the per-index loops they replace.

Each reference below decodes one product index at a time, the most
significant bit being the leftmost particle.  The vectorized helpers read the
shared bit table instead; their integer arithmetic is unchanged, so the
results must be equal exactly.
"""

import numpy as np
import pytest

from spinzeeman import ProductState, Species, SpinSystem
from spinzeeman import moment_diagonal, product_states_with_m
from spinzeeman.coupling import _site_permutation, _swap_permutation

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
        assert product_states_with_m(n, m) == product_states_with_m_loop(n, m)


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
