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
from dataclasses import dataclass, field

import numpy as np

from .coupling import BasisTransform, _m_sectors, _read_only_real
from .operators import moment_diagonal

ZERO_TOL = 1e-10
MOMENT_ORACLE_TOL = 1e-12
TRACK_TIE_TOL = 1e-9
# Distinct group energies closer than this, relative to max(1, |E|), would
# put a near-zero gap under a second-order sum.
ENERGY_GAP_TOL = 1e-9
# Coupled amplitudes are products of Clebsch-Gordan values, so exact zeros in
# the moment matrix come out as ~1e-17 accumulation noise; entries this far
# below the matrix scale are provably zero and are chopped.
CHOP_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Real symmetric matrix of <row| mu_z |col> over a coupled basis block."""

    basis: BasisTransform
    entries: np.ndarray
    # ``_partners`` results by DegeneracySpec, computed on first use
    _partners_by_spec: dict = field(default_factory=dict, init=False,
                                    repr=False)

    def __post_init__(self) -> None:
        mat = _read_only_real(self.entries, "moment matrix entries must be real")
        n = len(self.basis.states)
        mat = mat.reshape((n, n))
        tol = MOMENT_ORACLE_TOL * _unit(self)
        rows, cols = np.nonzero(mat != 0.0)  # bool nonzero is the fast one
        dev = np.max(np.abs(mat[rows, cols] - mat[cols, rows]), initial=0.0)
        if dev > tol:
            raise ValueError(f"moment matrix deviates from symmetric by {dev:.3e}")
        # mu_z conserves M; group rotations act within one M sector
        row_m = np.array([s.m for s in self.basis.states])
        cross = row_m[rows] != row_m[cols]
        leak = np.max(np.abs(mat[rows[cross], cols[cross]]), initial=0.0)
        if leak > tol:
            raise ValueError(
                f"moment matrix couples states of different M (entry {leak:.3e})"
            )
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

    mu_z conserves M, so the matrix is assembled from one real product per
    M sector of the rows.  The basis must be real, orthonormal, and keep
    each row inside its own M sector.  Entries below ``CHOP_TOL`` times the
    matrix scale are set to exact zero.
    """
    n = len(basis.states)
    row_m = np.array([s.m for s in basis.states])
    col_m = np.array([c.m for c in basis.column_states])
    diag = moment_diagonal(basis.system)[[c.index for c in basis.column_states]]
    products = []
    for rows, cols, block in _m_sectors(basis.matrix, row_m, col_m,
                                        ZERO_TOL).values():
        dev = np.max(np.abs(block @ block.T - np.eye(rows.size)))
        if dev > ZERO_TOL:
            raise ValueError(f"basis rows are not orthonormal (deviation {dev:.3e})")
        products.append((rows, (block * diag[cols]) @ block.T))
    scale = max((np.max(np.abs(p)) for _rows, p in products if p.size),
                default=0.0)
    # entries between different M stay exact zeros
    entries = np.zeros((n, n))
    for rows, product in products:
        product[np.abs(product) < CHOP_TOL * scale] = 0.0
        entries[np.ix_(rows, rows)] = product
    entries.setflags(write=False)
    return MomentMatrix(basis=basis, entries=entries)


def _near_equal(energies) -> "tuple[float, float] | None":
    """The lowest two distinct energies within ``ENERGY_GAP_TOL`` times
    max(1, |E|) of each other, or None."""
    ladder = sorted(set(energies))
    for low, high in zip(ladder, ladder[1:]):
        if high - low <= ENERGY_GAP_TOL * max(1.0, abs(low), abs(high)):
            return low, high
    return None


@dataclass(frozen=True)
class DegeneracySpec:
    """Partition of basis states into groups sharing an unperturbed energy.

    Distinct groups may share an energy only when
    ``allow_shared_energies`` is set; degenerate perturbation theory would
    otherwise collapse them.  Two distinct energies within
    ``ENERGY_GAP_TOL`` times max(1, |E|) of each other raise ``ValueError``.
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
        close = _near_equal(energies)
        if close is not None:
            low, high = close
            raise ValueError(
                f"groups {energies.index(low)} and {energies.index(high)} "
                f"have distinct but nearly equal energies {low!r} and "
                f"{high!r}; give them one energy or separate them"
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
        """Group states by assigned energy; unlisted states share energy 0.

        Nearly equal energies raise ``ValueError`` naming two of their states.
        """
        unknown = [lab for lab in mapping if lab not in labels]
        if unknown:
            raise ValueError(f"unknown state labels: {', '.join(unknown)}")
        by_energy: dict[float, list[int]] = {}
        for idx, lab in enumerate(labels):
            energy = float(mapping.get(lab, 0.0))
            by_energy.setdefault(energy, []).append(idx)
        close = _near_equal(by_energy)
        if close is not None:
            low, high = close
            a, b = labels[by_energy[low][0]], labels[by_energy[high][0]]
            raise ValueError(
                f"states {a} and {b} have distinct but nearly equal "
                f"energies {low!r} and {high!r}; give them one energy "
                "or separate them"
            )
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


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment``, imported on first call.

    Only group rotation and level tracking solve assignments, so a process
    that never does loads no scipy (about 0.5 s of import).
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


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

    Returns the rotated matrix and the per-state first-order moments.  The
    moment conserves M, so each group is split by M and every (group, M)
    sub-block that is not already diagonal is rotated in place: its
    eigenvectors act on the sub-block's rows and columns, restricted to
    sector M, and rotated states keep a definite M.  Eigenvalues are
    matched to the original states by maximal eigenvector overlap so the
    report rows stay aligned with the input basis.
    """
    rotated = matrix.entries  # copied before the first rotation
    moments = np.diag(rotated).copy()
    row_m = np.array([s.m for s in matrix.basis.states])
    for group in spec.groups:
        if len(group) == 1:
            continue
        group = np.asarray(group)
        group_m = row_m[group]
        for m in np.unique(group_m):
            idx = group[group_m == m]
            if idx.size == 1:
                continue
            block = matrix.entries[np.ix_(idx, idx)]
            off = block - np.diag(np.diag(block))
            if np.max(np.abs(off)) <= 1e-15 * _unit(matrix):
                continue
            w, v = np.linalg.eigh(block)
            _rows, cols = linear_sum_assignment(-(v * v))
            v = v[:, cols]
            if rotated is matrix.entries:
                rotated = np.array(rotated)
            sector = np.flatnonzero(row_m == m)
            rows = np.ix_(idx, sector)
            rotated[rows] = v.T @ rotated[rows]
            columns = np.ix_(sector, idx)
            rotated[columns] = rotated[columns] @ v
            moments[idx] = w[cols]
    moments[np.abs(moments) <= ZERO_TOL * _unit(matrix)] = 0.0
    return rotated, moments


def _partners(matrix: MomentMatrix, spec: DegeneracySpec):
    """Group-rotate, then mark the partners of each state.

    Returns the rotated matrix, the first-order moments, and a boolean mask
    whose (i, j) entry is set when j lies outside i's group and the rotated
    moment couples them above the zero tolerance.  The three read-only
    arrays are computed once per spec and kept on the matrix, so
    ``classify`` and ``quadratic_coefficients`` share one rotation.
    """
    _check_spec(matrix, spec)
    found = matrix._partners_by_spec.get(spec)
    if found is None:
        rotated, moments = _rotate_groups(matrix, spec)
        gids = spec.group_ids()
        mask = np.abs(rotated) > ZERO_TOL * _unit(matrix)
        mask &= gids[:, None] != gids[None, :]
        for array in (rotated, moments, mask):
            array.setflags(write=False)
        found = matrix._partners_by_spec[spec] = (rotated, moments, mask)
    return found


def classify(matrix: MomentMatrix, spec: DegeneracySpec) -> ZeemanReport:
    """Classify each state as LINEAR, QUADRATIC, or NONE.

    The slope of state k is minus its first-order moment eigenvalue.
    """
    _rotated, moments, mask = _partners(matrix, spec)
    labels = matrix.labels
    rows, cols = np.nonzero(mask)  # row-major order
    cols = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=matrix.size)).tolist()
    tol = ZERO_TOL * _unit(matrix)
    reports = []
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        slope = -moments[i]
        partners = tuple(map(labels.__getitem__, cols[start:end]))
        if abs(slope) > tol:
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
    """Eigenvalues of H(B) = H0 - B mu_z over a strictly increasing grid.

    Curves are tracked outward from B = 0, where each starts on its basis
    state.  A grid without B = 0 is tracked from an inserted origin that is
    left out of the result.
    """
    _check_spec(matrix, spec)
    b_values = np.asarray(fields, dtype=float)
    if b_values.ndim != 1 or b_values.size == 0:
        raise ValueError("field grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(b_values)):
        raise ValueError("field grid must be finite")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("field grid must be strictly increasing")
    origin = int(np.searchsorted(b_values, 0.0))
    inserted = origin == b_values.size or b_values[origin] != 0.0
    grid = np.insert(b_values, origin, 0.0) if inserted else b_values

    n = matrix.size
    h0 = np.diag(spec.state_energies().astype(complex))
    energies = np.empty((grid.size, n))
    energies[origin] = spec.state_energies()
    labels = matrix.labels
    flagged: list[tuple[float, str]] = []

    def march(indices) -> None:
        previous = np.eye(n, dtype=complex)
        for i in indices:
            w, v = np.linalg.eigh(h0 - grid[i] * matrix.entries)
            overlap = np.abs(previous.conj().T @ v)
            rows, cols = linear_sum_assignment(-(overlap**2))
            # row r ties with column c when c's overlap comes within the
            # tolerance of r's assigned one; c's owner is the other curve
            tie = overlap[rows, cols][:, None] - overlap <= TRACK_TIE_TOL
            tie[rows, cols] = False
            tied, ties = np.nonzero(tie)  # row-major, as the flags read
            owners = np.argsort(cols)[ties]
            pairs = np.stack([tied, owners], axis=1).ravel()
            flagged.extend((grid[i], labels[k]) for k in pairs)
            energies[i] = w[cols]
            previous = v[:, cols]

    march(range(origin + 1, grid.size))
    march(range(origin - 1, -1, -1))

    if inserted:
        energies = np.delete(energies, origin, axis=0)
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
    rows, cols = np.nonzero(mask)  # row-major order
    gap = energy[rows] - energy[cols]
    shared = np.flatnonzero(gap == 0.0)
    if shared.size:
        i, j = rows[shared[0]], cols[shared[0]]
        raise ValueError(
            f"states {labels[i]} and {labels[j]} are coupled but their "
            "groups share an energy; merge the groups"
        )
    coupling = rotated[rows, cols]
    # bincount adds each row's terms in ascending column order
    return np.bincount(rows, weights=coupling * coupling / gap,
                       minlength=matrix.size)
