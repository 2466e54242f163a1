"""Dense operators on the 2^N spin product space.

Pauli matrices are embedded at single sites by Kronecker products, with the
leftmost particle as the most significant factor.  The convention is
``sigma_z |up> = +|up>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import SpinSystem, _bit_table

HERMITIAN_TOL = 1e-12

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix on the product space.

    If ``hermitian_hint`` is set the matrix is checked against its adjoint at
    construction; the hint is never trusted unverified.
    """

    matrix: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        if self.hermitian_hint:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > HERMITIAN_TOL:
                raise ValueError(
                    f"matrix marked Hermitian deviates from its adjoint by {dev:.3e}"
                )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pauli_site(system: SpinSystem, axis: str, site: int) -> Operator:
    """Pauli matrix ``sigma_axis`` embedded at one site, identity elsewhere."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if not 0 <= site < system.n:
        raise ValueError(f"site {site} out of range for {system.n} particles")
    left = np.eye(1 << site, dtype=complex)
    right = np.eye(1 << (system.n - 1 - site), dtype=complex)
    return Operator(np.kron(np.kron(left, _PAULI[axis]), right),
                    hermitian_hint=True)


def _spin_component(system: SpinSystem, axis: str) -> np.ndarray:
    total = np.zeros((system.dimension, system.dimension), dtype=complex)
    for site in range(system.n):
        total += pauli_site(system, axis, site).matrix
    return 0.5 * total


def total_spin_z(system: SpinSystem) -> Operator:
    """S_z = (1/2) sum_i sigma_z,i; diagonal in the product basis."""
    return Operator(_spin_component(system, "z"), hermitian_hint=True)


def total_spin_squared(system: SpinSystem) -> Operator:
    """S^2 = S_x^2 + S_y^2 + S_z^2 with S = (1/2) sum_i sigma_i."""
    total = np.zeros((system.dimension, system.dimension), dtype=complex)
    for axis in ("x", "y", "z"):
        comp = _spin_component(system, axis)
        total += comp @ comp
    return Operator(total, hermitian_hint=True)


def moment_diagonal(system: SpinSystem) -> np.ndarray:
    """Diagonal of mu_z in the product basis: mu0 * sum_i sign_i sigma_z,i."""
    signs = np.array(system.moment_signs())
    return system.mu0 * ((1 - 2 * _bit_table(system.n)) @ signs)


def magnetic_moment_z(system: SpinSystem) -> Operator:
    """Magnetic moment mu_z; positrons enter with +mu0, electrons with -mu0."""
    return Operator(np.diag(moment_diagonal(system)).astype(complex),
                    hermitian_hint=True)


def hermitian_eigen(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a verified Hermitian operator.

    Returns:
        Ascending real eigenvalues and the matrix of orthonormal eigenvector
        columns.
    """
    if not op.hermitian_hint:
        raise ValueError("hermitian_eigen requires an operator marked Hermitian")
    dev = np.max(np.abs(op.matrix - op.matrix.conj().T))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"operator deviates from Hermitian by {dev:.3e}")
    return np.linalg.eigh(op.matrix)


def matrix_element(bra: np.ndarray, op: Operator, ket: np.ndarray) -> complex:
    """<bra| op |ket> for normalized vectors."""
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    if bra.shape != (op.dim,) or ket.shape != (op.dim,):
        raise ValueError(
            f"vector shapes {bra.shape}, {ket.shape} do not match dimension {op.dim}"
        )
    for name, vec in (("bra", bra), ("ket", ket)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError(f"{name} vector is not normalized")
    return complex(np.vdot(bra, op.matrix @ ket))
