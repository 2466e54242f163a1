"""Dense reference operators on the 2^N spin product space.

The library works with real coupled bases and the diagonal moment only.
The complex operators here are independent oracles for it: Pauli matrices
embedded at single sites by Kronecker products (leftmost particle the most
significant factor, ``sigma_z |up> = +|up>``), total spin, the magnetic
moment, the exchange permutation, and ``ProductState``, the per-ket bit
rendering that ``BasisTransform.columns`` and ``column_labels`` replace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spinzeeman import SpinSystem
from spinzeeman.coupling import _swap_permutation
from spinzeeman.system import _signed_spins

HERMITIAN_TOL = 1e-12

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class ProductState:
    """One ket of the 2^N product basis; bit 0 means up, 1 means down."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a non-empty sequence over {0, 1}")

    @classmethod
    def from_index(cls, index: int, n: int) -> "ProductState":
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for {n} particles")
        return cls(tuple((index >> (n - 1 - k)) & 1 for k in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @property
    def m(self) -> float:
        """Total spin projection: (ups - downs) / 2."""
        return (self.n - 2 * sum(self.bits)) / 2

    @property
    def label(self) -> str:
        return "|" + "".join("↓" if b else "↑" for b in self.bits) + "⟩"


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


def _spin_component(system: SpinSystem, axis: str, sites=None) -> np.ndarray:
    total = np.zeros((system.dimension, system.dimension), dtype=complex)
    for site in range(system.n) if sites is None else sites:
        total += pauli_site(system, axis, site).matrix
    return 0.5 * total


def total_spin_z(system: SpinSystem) -> Operator:
    """S_z = (1/2) sum_i sigma_z,i; diagonal in the product basis."""
    return Operator(_spin_component(system, "z"), hermitian_hint=True)


def total_spin_squared(system: SpinSystem, sites=None) -> Operator:
    """S^2 = S_x^2 + S_y^2 + S_z^2 with S = (1/2) sum_i sigma_i, over all
    sites or over ``sites`` alone."""
    total = np.zeros((system.dimension, system.dimension), dtype=complex)
    for axis in ("x", "y", "z"):
        comp = _spin_component(system, axis, sites)
        total += comp @ comp
    return Operator(total, hermitian_hint=True)


def moment_diagonal(system: SpinSystem) -> np.ndarray:
    """Diagonal of mu_z in the product basis: mu0 * sum_i sign_i sigma_z,i."""
    return system.mu0 * _signed_spins(system)


def magnetic_moment_z(system: SpinSystem) -> Operator:
    """Magnetic moment mu_z; positrons enter with +mu0, electrons with -mu0."""
    return Operator(np.diag(moment_diagonal(system)).astype(complex),
                    hermitian_hint=True)


def exchange_operator(system: SpinSystem, i: int, j: int) -> Operator:
    """Permutation operator transposing particles i and j."""
    perm = _swap_permutation(system.n, i, j)
    matrix = np.zeros((system.dimension, system.dimension), dtype=complex)
    matrix[perm, np.arange(system.dimension)] = 1.0
    return Operator(matrix, hermitian_hint=True)


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
