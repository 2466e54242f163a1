"""Dense reference operators: Pauli embeddings, total spin, magnetic moment."""

import itertools
import math

import numpy as np
import pytest

from spinzeeman import Species, SpinSystem

from dense_operators import (
    Operator,
    ProductState,
    hermitian_eigen,
    magnetic_moment_z,
    matrix_element,
    pauli_site,
    total_spin_squared,
    total_spin_z,
)

DIPOS = SpinSystem.dipositronium()


def _commutator(a, b):
    return a @ b - b @ a


def test_pauli_z_eigenvalues():
    up3down1 = ProductState((0, 0, 0, 1)).index  # |up up up down>
    z0 = pauli_site(DIPOS, "z", 0).matrix
    z3 = pauli_site(DIPOS, "z", 3).matrix
    assert z0[up3down1, up3down1] == 1.0
    assert z3[up3down1, up3down1] == -1.0


def test_pauli_x_flips_one_spin():
    x0 = pauli_site(DIPOS, "x", 0).matrix
    all_up = 0
    flipped = ProductState((1, 0, 0, 0)).index
    column = x0[:, all_up]
    assert column[flipped] == 1.0
    assert np.count_nonzero(column) == 1


def test_pauli_squares_to_identity():
    for axis in "xyz":
        op = pauli_site(DIPOS, axis, 2).matrix
        assert np.allclose(op @ op, np.eye(16), atol=1e-14)


def test_pauli_site_errors():
    with pytest.raises(ValueError):
        pauli_site(DIPOS, "z", 4)
    with pytest.raises(ValueError):
        pauli_site(DIPOS, "w", 0)


def test_onsite_algebra():
    # sigma_x sigma_y = i sigma_z and cyclic permutations, on every site
    system = SpinSystem.from_species((Species.ELECTRON,) * 3)
    cycles = [("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")]
    for site in range(system.n):
        for a, b, c in cycles:
            left = pauli_site(system, a, site).matrix @ pauli_site(system, b, site).matrix
            right = 1j * pauli_site(system, c, site).matrix
            assert np.max(np.abs(left - right)) <= 1e-12


def test_cross_site_commutators_vanish():
    for (i, j) in itertools.combinations(range(DIPOS.n), 2):
        for a, b in itertools.product("xyz", repeat=2):
            comm = _commutator(
                pauli_site(DIPOS, a, i).matrix, pauli_site(DIPOS, b, j).matrix
            )
            assert np.max(np.abs(comm)) <= 1e-12


def test_total_spin_z_matches_bit_count():
    sz = total_spin_z(DIPOS).matrix
    assert np.max(np.abs(sz - np.diag(np.diag(sz)))) == 0.0
    for index in range(16):
        assert sz[index, index].real == ProductState.from_index(index, 4).m
    up3down1 = ProductState((0, 0, 0, 1)).index
    assert sz[up3down1, up3down1] == 1.0


def test_spin_squared_two_particles():
    system = SpinSystem.positronium()
    values, _ = hermitian_eigen(total_spin_squared(system))
    assert values == pytest.approx([0.0, 2.0, 2.0, 2.0], abs=1e-10)


def test_spin_squared_multiplicities_four_particles():
    # brute-force diagonalization: one S=2 multiplet, three S=1, two S=0
    values, _ = hermitian_eigen(total_spin_squared(DIPOS))
    rounded = np.round(values).astype(int)
    assert np.max(np.abs(values - rounded)) <= 1e-10
    counts = {v: int(np.sum(rounded == v)) for v in sorted(set(rounded))}
    assert counts == {0: 2, 2: 9, 6: 5}


def test_commutation_invariants():
    s2 = total_spin_squared(DIPOS).matrix
    sz = total_spin_z(DIPOS).matrix
    mu = magnetic_moment_z(DIPOS).matrix
    assert np.max(np.abs(_commutator(s2, sz))) <= 1e-12
    assert np.max(np.abs(_commutator(mu, sz))) <= 1e-12
    # mu_z mixes different total-spin multiplets
    assert np.max(np.abs(_commutator(mu, s2))) > 0.1


def test_moment_diagonal_values():
    mu = magnetic_moment_z(DIPOS).matrix
    off = mu - np.diag(np.diag(mu))
    assert np.max(np.abs(off)) <= 1e-15
    assert abs(np.trace(mu)) == 0.0

    def entry(bits):
        return mu[ProductState(bits).index, ProductState(bits).index].real

    assert entry((0, 0, 0, 1)) == -2.0  # e1 up, p1 up, e2 up, p2 down
    assert entry((0, 0, 0, 0)) == 0.0
    assert entry((1, 0, 1, 0)) == 4.0


def test_moment_scales_with_mu0():
    system = SpinSystem.dipositronium(mu0=2.0)
    mu = magnetic_moment_z(system).matrix
    assert mu[1, 1].real == -4.0


def test_moment_spectrum_from_enumeration():
    # independent oracle: enumerate the 16 signed sums directly
    signs = (-1, 1, -1, 1)
    sums = []
    for index in range(16):
        bits = ProductState.from_index(index, 4).bits
        sums.append(sum(s * (1 - 2 * b) for s, b in zip(signs, bits)))
    values, _ = hermitian_eigen(magnetic_moment_z(DIPOS))
    assert values == pytest.approx(sorted(sums), abs=1e-12)
    counts = {v: sums.count(v) for v in sorted(set(sums))}
    assert counts == {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}


def test_hermitian_eigen_contracts():
    single = SpinSystem.from_species((Species.ELECTRON,))
    op = pauli_site(single, "z", 0)
    values, vectors = hermitian_eigen(op)
    assert values == pytest.approx([-1.0, 1.0], abs=1e-14)

    s2 = total_spin_squared(DIPOS)
    values, vectors = hermitian_eigen(s2)
    recon = vectors @ np.diag(values) @ vectors.conj().T
    assert np.max(np.abs(recon - s2.matrix)) <= 1e-10
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(16))) <= 1e-10


def test_hermitian_eigen_rejects_unverified():
    op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian_hint=False)
    with pytest.raises(ValueError):
        hermitian_eigen(op)


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian_hint=True)
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_matrix_element_examples():
    mu = magnetic_moment_z(DIPOS)
    all_up = np.zeros(16)
    all_up[0] = 1.0
    assert matrix_element(all_up, mu, all_up) == 0.0

    # positronium singlet/triplet built directly in the product basis
    system = SpinSystem.positronium()
    mu2 = magnetic_moment_z(system)
    up_down = ProductState((0, 1)).index
    down_up = ProductState((1, 0)).index
    triplet0 = np.zeros(4)
    triplet0[[up_down, down_up]] = 1 / math.sqrt(2)
    singlet = np.zeros(4)
    singlet[up_down] = 1 / math.sqrt(2)
    singlet[down_up] = -1 / math.sqrt(2)
    assert matrix_element(triplet0, mu2, singlet) == pytest.approx(-2.0, abs=1e-12)
    assert matrix_element(triplet0, mu2, triplet0) == pytest.approx(0.0, abs=1e-12)
    assert matrix_element(singlet, mu2, singlet) == pytest.approx(0.0, abs=1e-12)


def test_matrix_element_conjugate_symmetry():
    rng = np.random.default_rng(7)
    mu = magnetic_moment_z(DIPOS)
    for _ in range(5):
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        left = matrix_element(a, mu, b)
        right = matrix_element(b, mu, a)
        assert left == pytest.approx(np.conj(right), abs=1e-12)


def test_matrix_element_errors():
    mu = magnetic_moment_z(DIPOS)
    with pytest.raises(ValueError):
        matrix_element(np.zeros(8), mu, np.zeros(16))
    vec = np.zeros(16)
    vec[0] = 0.5
    good = np.zeros(16)
    good[0] = 1.0
    with pytest.raises(ValueError):
        matrix_element(vec, mu, good)
