"""Magnetic-moment matrices in coupled bases and Zeeman-order classification.

The field enters as H(B) = H0 - B * mu_z, so a state's first-order energy
slope is minus its moment expectation value.  Classification is relative to
a declared degeneracy structure: within each degenerate group the moment is
diagonalized first (degenerate perturbation theory), then states split into
LINEAR (nonzero slope), QUADRATIC (zero slope but coupled outside the
group), and NONE (entire moment row zero).

Tolerances on moments and couplings (``ZERO_TOL``, ``MOMENT_ORACLE_TOL``)
are relative to |mu0|, so a verdict does not depend on the moment unit.
Unitless checks (basis orthonormality, level tracking) stay absolute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .coupling import BasisTransform
from .operators import moment_diagonal

ZERO_TOL = 1e-10
MOMENT_ORACLE_TOL = 1e-12
TRACK_TIE_TOL = 1e-9
# Coupled amplitudes are products of Clebsch-Gordan values, so exact zeros in
# the moment matrix come out as ~1e-17 accumulation noise; entries this far
# below the matrix scale are provably zero and are chopped.
CHOP_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Hermitian matrix of <row| mu_z |col> over a coupled basis block."""

    basis: BasisTransform
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        n = len(self.basis.states)
        mat = mat.reshape((n, n))
        dev = np.max(np.abs(mat - mat.conj().T)) if n else 0.0
        if dev > MOMENT_ORACLE_TOL * _unit(self):
            raise ValueError(f"moment matrix deviates from Hermitian by {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.row_labels

    @property
    def size(self) -> int:
        return len(self.basis.states)


def moment_matrix(basis: BasisTransform) -> MomentMatrix:
    """Moment matrix for a basis block; mu_z is diagonal over the columns.

    Entries below ``CHOP_TOL`` times the matrix scale are set to exact zero.
    """
    mat = basis.matrix
    n = len(basis.states)
    if n:
        gram = mat @ mat.conj().T
        dev = np.max(np.abs(gram - np.eye(n)))
        if dev > ZERO_TOL:
            raise ValueError(f"basis rows are not orthonormal (deviation {dev:.3e})")
    diag = moment_diagonal(basis.system)[[c.index for c in basis.column_states]]
    entries = (mat.conj() * diag) @ mat.T
    scale = np.max(np.abs(entries)) if entries.size else 0.0
    if scale > 0.0:
        entries[np.abs(entries) < CHOP_TOL * scale] = 0.0
    return MomentMatrix(basis=basis, entries=entries)


@dataclass(frozen=True)
class DegeneracySpec:
    """Partition of basis states into groups sharing an unperturbed energy.

    Distinct groups may share an energy only when
    ``allow_shared_energies`` is set; degenerate perturbation theory would
    otherwise collapse them.
    """

    groups: tuple[tuple[int, ...], ...]
    energies: tuple[float, ...]
    allow_shared_energies: bool = False

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "energies", energies)
        if len(groups) != len(energies):
            raise ValueError("need one energy per group")
        members = sorted(i for g in groups for i in g)
        if members != list(range(len(members))):
            raise ValueError("groups must partition the basis states exactly")
        if not all(np.isfinite(energies)):
            raise ValueError("group energies must be finite")
        if not self.allow_shared_energies:
            if len(set(energies)) != len(energies):
                raise ValueError(
                    "distinct groups share an energy; merge them or set "
                    "allow_shared_energies"
                )

    @property
    def size(self) -> int:
        return sum(len(g) for g in self.groups)

    @classmethod
    def isolated(cls, n: int) -> "DegeneracySpec":
        """Each state its own zero-energy group (the default reading)."""
        return cls(
            groups=tuple((i,) for i in range(n)),
            energies=(0.0,) * n,
            allow_shared_energies=True,
        )

    @classmethod
    def from_energy_map(cls, labels: "list[str]",
                        mapping: "dict[str, float]") -> "DegeneracySpec":
        """Group states by assigned energy; unlisted states share energy 0."""
        unknown = [lab for lab in mapping if lab not in labels]
        if unknown:
            raise ValueError(f"unknown state labels: {', '.join(unknown)}")
        by_energy: dict[float, list[int]] = {}
        for idx, lab in enumerate(labels):
            energy = float(mapping.get(lab, 0.0))
            by_energy.setdefault(energy, []).append(idx)
        items = sorted(by_energy.items(), key=lambda kv: kv[1][0])
        return cls(
            groups=tuple(tuple(idx) for _e, idx in items),
            energies=tuple(e for e, _idx in items),
        )

    def state_energies(self) -> np.ndarray:
        out = np.empty(self.size)
        for group, energy in zip(self.groups, self.energies):
            for idx in group:
                out[idx] = energy
        return out

    def group_ids(self) -> np.ndarray:
        out = np.empty(self.size, dtype=int)
        for gid, group in enumerate(self.groups):
            for idx in group:
                out[idx] = gid
        return out


class Classification(enum.Enum):
    LINEAR = "LINEAR"
    QUADRATIC = "QUADRATIC"
    NONE = "NONE"


@dataclass(frozen=True)
class StateReport:
    """Zeeman behaviour of one (possibly group-rotated) basis state."""

    label: str
    classification: Classification
    moment: float
    linear_slope: float
    quadratic_partners: tuple[str, ...]


@dataclass(eq=False)
class ZeemanReport:
    states: tuple[StateReport, ...]

    def counts(self) -> "dict[Classification, int]":
        out = {c: 0 for c in Classification}
        for s in self.states:
            out[s.classification] += 1
        return out

    def by_label(self) -> "dict[str, StateReport]":
        return {s.label: s for s in self.states}


def _check_spec(matrix: MomentMatrix, spec: DegeneracySpec) -> None:
    if spec.size != matrix.size:
        raise ValueError(
            f"degeneracy spec covers {spec.size} states but the matrix has "
            f"{matrix.size}"
        )


def _unit(matrix: MomentMatrix) -> float:
    """|mu0|, the scale of the moment tolerances."""
    return abs(matrix.basis.system.mu0)


def _rotate_groups(matrix: MomentMatrix, spec: DegeneracySpec):
    """Diagonalize the moment within each group.

    Returns the rotated matrix and the per-state first-order moments.  Group
    eigenvalues are matched to the original states by maximal eigenvector
    overlap so the report rows stay aligned with the input basis.
    """
    entries = matrix.entries
    n = matrix.size
    rotation = np.eye(n, dtype=complex)
    moments = np.empty(n)
    for group in spec.groups:
        idx = np.asarray(group)
        block = entries[np.ix_(idx, idx)]
        off = block - np.diag(np.diag(block))
        if np.max(np.abs(off), initial=0.0) <= 1e-15 * _unit(matrix):
            moments[idx] = np.diag(block).real
            continue
        w, v = np.linalg.eigh(block)
        _rows, cols = linear_sum_assignment(-np.abs(v) ** 2)
        w = w[cols]
        v = v[:, cols]
        rotation[np.ix_(idx, idx)] = v
        moments[idx] = w
    moments[np.abs(moments) <= ZERO_TOL * _unit(matrix)] = 0.0
    rotated = rotation.conj().T @ entries @ rotation
    return rotated, moments


def _partners(matrix: MomentMatrix, spec: DegeneracySpec):
    """Group-rotate, then mark the partners of each state.

    Returns the rotated matrix, the first-order moments, and a boolean mask
    whose (i, j) entry is set when j lies outside i's group and the rotated
    moment couples them above the zero tolerance.
    """
    _check_spec(matrix, spec)
    rotated, moments = _rotate_groups(matrix, spec)
    gids = spec.group_ids()
    mask = np.abs(rotated) > ZERO_TOL * _unit(matrix)
    mask &= gids[:, None] != gids[None, :]
    return rotated, moments, mask


def classify(matrix: MomentMatrix, spec: DegeneracySpec) -> ZeemanReport:
    """Classify each state as LINEAR, QUADRATIC, or NONE.

    The slope of state k is minus its first-order moment eigenvalue.
    """
    _rotated, moments, mask = _partners(matrix, spec)
    labels = matrix.labels
    reports = []
    for i, row in enumerate(mask):
        slope = -moments[i]
        partners = tuple(labels[j] for j in np.flatnonzero(row))
        if abs(slope) > ZERO_TOL * _unit(matrix):
            kind = Classification.LINEAR
        elif partners:
            kind = Classification.QUADRATIC
        else:
            kind = Classification.NONE
        reports.append(
            StateReport(
                label=labels[i],
                classification=kind,
                moment=moments[i],
                linear_slope=slope,
                quadratic_partners=partners,
            )
        )
    return ZeemanReport(tuple(reports))


@dataclass(eq=False)
class LevelCurves:
    """Exact eigenvalue curves E(B), tracked by eigenvector continuity.

    ``energies[i, k]`` is the energy at ``b_values[i]`` of the curve that
    starts from basis state k at B = 0.  Near-ties in the tracking overlap
    are recorded in ``flagged`` as (B, label) pairs.
    """

    b_values: np.ndarray
    energies: np.ndarray
    labels: tuple[str, ...]
    flagged: tuple[tuple[float, str], ...]

    def curve(self, label: str) -> np.ndarray:
        return self.energies[:, self.labels.index(label)]


def level_curves(matrix: MomentMatrix, spec: DegeneracySpec,
                 fields) -> LevelCurves:
    """Eigenvalues of H(B) = H0 - B mu_z over a sorted field grid with 0."""
    _check_spec(matrix, spec)
    b_values = np.asarray(fields, dtype=float)
    if b_values.ndim != 1 or b_values.size == 0:
        raise ValueError("field grid must be a non-empty 1-D array")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("field grid must be strictly increasing")
    zeros = np.flatnonzero(b_values == 0.0)
    if zeros.size != 1:
        raise ValueError("field grid must contain B = 0 exactly once")
    origin = int(zeros[0])

    n = matrix.size
    h0 = np.diag(spec.state_energies().astype(complex))
    energies = np.empty((b_values.size, n))
    energies[origin] = spec.state_energies()
    labels = matrix.labels
    flagged: list[tuple[float, str]] = []

    def march(indices) -> None:
        previous = np.eye(n, dtype=complex)
        for i in indices:
            w, v = np.linalg.eigh(h0 - b_values[i] * matrix.entries)
            overlap = np.abs(previous.conj().T @ v)
            _rows, cols = linear_sum_assignment(-(overlap**2))
            for r in range(n):
                best = overlap[r, cols[r]]
                for c in range(n):
                    if c == cols[r]:
                        continue
                    if best - overlap[r, c] <= TRACK_TIE_TOL:
                        other = int(np.flatnonzero(cols == c)[0])
                        flagged.append((b_values[i], labels[r]))
                        flagged.append((b_values[i], labels[other]))
            energies[i] = w[cols]
            previous = v[:, cols]

    march(range(origin + 1, b_values.size))
    march(range(origin - 1, -1, -1))

    unique_flags = tuple(dict.fromkeys(flagged))
    return LevelCurves(
        b_values=b_values,
        energies=energies,
        labels=labels,
        flagged=unique_flags,
    )


def quadratic_coefficients(matrix: MomentMatrix,
                           spec: DegeneracySpec) -> np.ndarray:
    """Second-order coefficients of B^2 per state.

    Uses sum over states outside the group of |<n| mu_z |m>|^2 / (E_n - E_m)
    after the within-group rotation.  Groups that are coupled by the moment
    must not share an energy.
    """
    rotated, _moments, mask = _partners(matrix, spec)
    energy = spec.state_energies()
    labels = matrix.labels
    coeffs = np.zeros(matrix.size)
    # row-major order: each row sums its terms in ascending j
    for i, j in zip(*np.nonzero(mask)):
        gap = energy[i] - energy[j]
        if gap == 0.0:
            raise ValueError(
                f"states {labels[i]} and {labels[j]} are coupled but their "
                "groups share an energy; merge the groups"
            )
        coeffs[i] += abs(rotated[i, j]) ** 2 / gap
    return coeffs
