"""Magnetic-moment matrices in coupled bases and Zeeman-order classification.

The field enters as H(B) = H0 - B * mu_z, so a state's first-order energy
slope is minus its moment expectation value.  Classification is relative to
a declared degeneracy structure: within each degenerate group the moment is
diagonalized first (degenerate perturbation theory), then states split into
LINEAR (nonzero slope), QUADRATIC (zero slope but coupled outside the
group), and NONE (entire moment row zero).

Moments are computed in units of mu0 and every tolerance is unitless, so
no verdict depends on the moment unit; mu0 scales only the numbers that
leave the library.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .coupling import BasisTransform, _frozen
from .system import _signed_spins

ZERO_TOL = 1e-10
TRACK_TIE_TOL = 1e-9
# Distinct group energies closer than this, relative to max(1, |E|), would
# put a near-zero gap under a second-order sum.
ENERGY_GAP_TOL = 1e-9
# Coupled amplitudes are products of Clebsch-Gordan values, so exact zeros in
# the moment matrix come out as ~1e-17 accumulation noise; entries this far
# below the matrix scale are provably zero and are chopped.
CHOP_TOL = 1e-14


@dataclass(frozen=True, eq=False, init=False)
class MomentMatrix:
    """Real symmetric matrix of <row| mu_z |col> over a coupled basis block.

    Only ``moment_matrix`` builds one.  mu_z conserves M, so ``_blocks``
    keeps ``{M: (rows, block)}`` for each M sector of the basis, in
    ascending M and in units of mu0, and the matrix is zero between them;
    ``entries``, the same matrix times mu0 as a read-only dense array, is
    built from the blocks on each read.  The library works on the blocks
    only; of its callers, just the CLI's ``moment`` command reads
    ``entries``.  ``_patterns`` keeps, by M, for each sector ``_partners``
    scans, the (row, column) positions of the block's entries above
    ``ZERO_TOL`` in row-major order, built on its first scan and shared by
    every spec; nothing else builds them.
    """

    basis: BasisTransform

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("moment matrices are built by moment_matrix()")

    @property
    def entries(self) -> np.ndarray:
        """Read-only float64 dense matrix, built from the blocks."""
        entries = np.zeros((self.size, self.size))
        # scaled per block: the zero pages between blocks stay untouched
        for rows, block in self._blocks.values():  # consecutive rows
            span = slice(rows[0], rows[-1] + 1)
            entries[span, span] = block * self.basis.system.mu0
        entries.setflags(write=False)
        return entries

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.row_labels

    @property
    def size(self) -> int:
        return len(self.basis)


def moment_matrix(basis: BasisTransform) -> MomentMatrix:
    """Moment matrix of a basis from ``couple``, or of an M sector of one
    from ``m_sector``; mu_z is diagonal over the columns.

    mu_z conserves M, so the matrix is assembled from one real product per
    M sector of the rows, taken on the block ``couple`` built for that
    sector, which is orthonormal as built.  Entries below ``CHOP_TOL``
    times the matrix scale are set to exact zero.  Flipping every spin
    maps |i M> to eta_i |i -M> and mu_z to -mu_z, so where the basis holds
    both M > 0 and -M, the -M block is -D block(M) D with D = diag(eta):
    no product and no chop of its own, and an exact mirror, zeros being
    +0.0.  A lone M < 0 sector is multiplied out like any other, so its
    entries may differ from the mirror's in their last bits.
    """
    diag = _signed_spins(basis.system)
    sectors = basis._sectors
    products = {m: (block * diag[cols]) @ block.T
                for m, (_rows, cols, block) in sectors.items()
                if m >= 0 or -m not in sectors}
    scale = max((np.max(np.abs(p)) for p in products.values() if p.size),
                default=0.0)
    for product in products.values():
        product[np.abs(product) < CHOP_TOL * scale] = 0.0
        product.setflags(write=False)
    blocks = {}
    for m, (rows, _cols, _block) in sectors.items():  # ascending M
        product = products.get(m)
        if product is None:
            eta = basis._flips[rows]
            product = 0.0 - products[-m] * np.outer(eta, eta)
            product.setflags(write=False)
        blocks[m] = rows, product
    # MomentMatrix has no constructor to run; _partners_by_spec keeps the
    # ``_partners`` result of each DegeneracySpec and _patterns the nonzero
    # pattern of each sector, by M, each computed on first use
    matrix = object.__new__(MomentMatrix)
    matrix.__dict__.update(basis=basis, _blocks=blocks,
                           _partners_by_spec={}, _patterns={})
    return matrix


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

    Distinct groups that hold a state may share an energy only when
    ``allow_shared_energies`` is set; degenerate perturbation theory would
    otherwise collapse them.  Two distinct energies of such groups within
    ``ENERGY_GAP_TOL`` times max(1, |E|) of each other raise ``ValueError``,
    and so does a member that is not a whole number.

    The partition is also kept per state, as two read-only arrays built
    once on construction: ``group_of[k]`` is the index in ``groups`` of
    state k's group, and ``energy_of[k]`` its float64 energy.
    """

    groups: tuple[tuple[int, ...], ...]
    energies: tuple[float, ...]
    allow_shared_energies: bool = False
    group_of: np.ndarray = field(init=False, repr=False, compare=False)
    energy_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # groups are always made tuples, and members ints unless they
        # already are; a member that is not a whole number is refused
        groups = tuple(map(tuple, self.groups))
        members = list(itertools.chain.from_iterable(groups))
        if not set(map(type, members)) <= {int}:
            for i in members:
                if int(i) != i:
                    raise ValueError(f"group member {i!r} is not an integer")
            groups = tuple(tuple(map(int, g)) for g in groups)
            members = list(itertools.chain.from_iterable(groups))
        energies = tuple(map(float, self.energies))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "energies", energies)
        if len(groups) != len(energies):
            raise ValueError("need one energy per group")
        # each state's group: a member out of range places none, and one
        # given twice leaves another state without a group
        group_of = np.full(len(members), -1)
        if not members or 0 <= min(members) and max(members) < len(members):
            group_of[members] = np.repeat(np.arange(len(groups)),
                                          list(map(len, groups)))
        if np.any(group_of < 0):
            raise ValueError("groups must partition the basis states exactly")
        values = np.array(energies)
        if not np.all(np.isfinite(values)):
            raise ValueError("group energies must be finite")
        # an empty group's energy is no state's, so it is not compared
        held = [k for k, group in enumerate(groups) if group]
        levels = [energies[k] for k in held]
        if not self.allow_shared_energies:
            if len(set(levels)) != len(levels):
                raise ValueError(
                    "distinct groups share an energy; merge them or set "
                    "allow_shared_energies"
                )
        close = _near_equal(levels)
        if close is not None:
            low, high = (held[levels.index(e)] for e in close)
            raise ValueError(
                f"groups {low} and {high} have distinct but nearly equal "
                f"energies {close[0]!r} and {close[1]!r}; give them one "
                "energy or separate them"
            )
        energy_of = values[group_of]
        for name, array in (("group_of", group_of), ("energy_of", energy_of)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def size(self) -> int:
        return self.group_of.size

    @classmethod
    def isolated(cls, n: int) -> "DegeneracySpec":
        """Each state its own zero-energy group (the default reading): a
        partition by construction, so it is built without the checks.  An
        ``n`` that is not a non-negative integer raises ``ValueError``."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"isolated spec needs a non-negative integer "
                             f"state count, got {n!r}")
        spec = object.__new__(cls)  # frozen: the fields are set here
        spec.__dict__.update(groups=tuple(zip(range(n))), energies=(0.0,) * n,
                             allow_shared_energies=True,
                             group_of=np.arange(n), energy_of=np.zeros(n))
        spec.group_of.setflags(write=False)
        spec.energy_of.setflags(write=False)
        return spec

    @classmethod
    def from_energy_map(cls, labels: "list[str]",
                        mapping: "dict[str, float]") -> "DegeneracySpec":
        """Group states by assigned energy; unlisted states share energy 0.

        A non-finite energy raises ``ValueError`` naming its state, and
        nearly equal energies one naming two of their states.
        """
        known = set(labels)
        unknown = [lab for lab in mapping if lab not in known]
        if unknown:
            raise ValueError(f"unknown state labels: {', '.join(unknown)}")
        by_energy: dict[float, list[int]] = {}
        for idx, lab in enumerate(labels):
            energy = float(mapping.get(lab, 0.0))
            if not math.isfinite(energy):
                raise ValueError(f"state {lab} has non-finite energy "
                                 f"{energy!r}")
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
        # the energies come in the order of their first states
        return cls(groups=tuple(by_energy.values()), energies=tuple(by_energy))


class Classification(enum.Enum):
    LINEAR = "LINEAR"
    QUADRATIC = "QUADRATIC"
    NONE = "NONE"


@_frozen
@dataclass(frozen=True, slots=True)
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


_LSAP = "scipy.optimize._lsap"
_solver = None
_solver_lock = threading.Lock()


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment``, loaded on first call.

    Only group rotation and level tracking solve assignments, so a process
    that never does loads no scipy.  One that does loads only the compiled
    solver, not the ``scipy.optimize`` package.  The load runs once, under
    a lock: first calls that overlap in two threads wait for it rather than
    load it again.
    """
    global _solver
    if _solver is None:
        with _solver_lock:
            if _solver is None:
                _solver = _load_solver()
    return _solver(cost)


def _lsap_path() -> "str | None":
    """The file of scipy's compiled solver module, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    directory = os.path.join(spec.submodule_search_locations[0], "optimize")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_lsap" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_solver():
    path = _lsap_path()
    # An imported scipy.optimize already holds the solver; loading it again
    # here would pop that package's live module entry below.
    if path is None or _LSAP in sys.modules:
        from scipy.optimize import linear_sum_assignment as solve

        return solve
    loader = importlib.machinery.ExtensionFileLoader(_LSAP, path)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_LSAP, loader))
        loader.exec_module(module)
    finally:
        # Left in place, the entry would make a later ``import
        # scipy.optimize`` skip binding its ``_lsap`` attribute; without it
        # that import runs normally and yields this same function.
        sys.modules.pop(_LSAP, None)
    return module.linear_sum_assignment


def _check_spec(matrix: MomentMatrix, spec: DegeneracySpec) -> None:
    if spec.size != matrix.size:
        raise ValueError(
            f"degeneracy spec covers {spec.size} states but the matrix has "
            f"{matrix.size}"
        )


def _partners(matrix: MomentMatrix, spec: DegeneracySpec):
    """Diagonalize the moment within each group, then list the partners
    of each state.

    Returns the first-order moments and, in row-major order, the rows,
    columns and rotated moments of every pair whose column lies outside
    the row's group and whose rotated moment couples them above the zero
    tolerance.  The four read-only arrays are computed once per spec and
    kept on the matrix, so ``classify`` and ``quadratic_coefficients``
    share one rotation and one scan.  They depend on the partition alone:
    no bit of them depends on how a spec lists its groups or their members.

    The moment conserves M, so each M sector of ``_blocks`` is rotated and
    scanned in one pass, in ascending M.  In a sector, every group with two
    or more rows there is visited in the order of its first row; its
    sub-block, if not already diagonal, is rotated inside a copy of the
    sector's block, so rotated states keep a definite M.  They are matched
    to the original states by maximal overlap, so the report rows stay
    aligned with the input basis.  A sector's pairs are the entries of its
    rotated block above ``ZERO_TOL``, in row-major order, whose row and
    column lie in different groups.  Where no group is rotated, those
    entries are the matrix's nonzero pattern of the sector, kept by M
    (``MomentMatrix``), so every spec shares it.  The sectors' rows descend
    in M, so their pairs, taken in reverse, are in row-major order.

    A sub-block at M != 0 whose rows share one total spin S holds whole
    spin multiplets.  By Wigner-Eckart it is M R_S, with one R_S for the
    same multiplets at every M, whichever groups hold them.  So R_S is
    solved once, from their first such sub-block (at their most negative
    M) over M, and a state's moment is M times its eigenvalue of R_S.  A
    sub-block that mixes S, as a group of an energies file may, or that
    lies at M = 0 is solved alone.  Sub-blocks are read unrotated.

    Mirror rule: block(M) = -D block(-M) D, D the diagonal of flip signs
    eta (``moment_matrix``), and one R_S rotates both.  The phases of a
    tree's nodes multiply to eta = (-1)^(N/2 - S), so the rows of one S
    share one eta and R_S commutes with D.  So where a sector at M > 0
    has the groups of -M, as sets of rows, and every group rotated at -M
    was solved per multiplet, it takes the pair positions of -M, the
    couplings 0.0 - eta_i eta_j times those of -M and the moments 0.0 -
    those of -M.  Its groups come in the order of -M's, and negation
    commutes with IEEE rounding, so this equals a scan bit for bit.  Any
    other sector is rotated and scanned.
    """
    _check_spec(matrix, spec)
    found = matrix._partners_by_spec.get(spec)
    if found is not None:
        return found
    moments = np.zeros(matrix.size)
    basis = matrix.basis
    multiplet, two_s = basis._multiplets, basis._two_s
    solved = {}  # eigenvalues and matched vectors, by set of multiplets
    mirrors = {}  # what each mirrorable M < 0 sector leaves to +M
    pairs = []  # each sector's rows, columns and couplings
    for m, (rows, block) in matrix._blocks.items():  # ascending M
        gids = spec.group_of[rows]
        # the groups of two or more rows here, by their first row
        groups = sorted((np.flatnonzero(gids == g)
                         for g in np.flatnonzero(np.bincount(gids) > 1)),
                        key=lambda local: local[0])
        if -m in mirrors:  # so m > 0
            low, i, j, coupling, low_groups = mirrors[-m]
            if (len(groups) == len(low_groups)
                    and all(map(np.array_equal, groups, low_groups))):
                eta = basis._flips[rows]
                moments[rows] = 0.0 - moments[low]
                pairs.append((rows[i], rows[j],
                              0.0 - eta[i] * eta[j] * coupling))
                continue
        moments[rows] = np.diag(block)
        rotated, mirrored = block, m < 0
        for local in groups:
            first = local[0]
            if local[-1] - first == local.size - 1:
                local = slice(first, local[-1] + 1)
            sub = block[local][:, local]
            if np.max(np.abs(sub - np.diag(np.diag(sub)))) <= 1e-15:
                continue
            idx = rows[local]
            if m and np.all(two_s[idx] == two_s[idx[0]]):
                key, unit = multiplet[idx].tobytes(), m
            else:  # solved for this sub-block alone, so never mirrored
                key, unit, mirrored = (m, first), 1.0, False
            if key not in solved:
                w, v = np.linalg.eigh(sub / unit)
                _rows, cols = linear_sum_assignment(-(v * v))
                solved[key] = w[cols], v[:, cols]
            w, v = solved[key]
            if rotated is block:
                rotated = np.array(block)
            rotated[local] = v.T @ rotated[local]
            rotated[:, local] = rotated[:, local] @ v
            moments[idx] = unit * w
        if rotated is not block:
            i, j = np.nonzero(np.abs(rotated) > ZERO_TOL)
        elif m in matrix._patterns:
            i, j = matrix._patterns[m]
        else:
            i, j = matrix._patterns[m] = np.nonzero(np.abs(block) > ZERO_TOL)
        outside = gids[i] != gids[j]  # row-major order is kept
        i, j = i[outside], j[outside]
        pairs.append((rows[i], rows[j], rotated[i, j]))
        if mirrored:
            mirrors[m] = rows, i, j, pairs[-1][2], groups
    moments[np.abs(moments) <= ZERO_TOL] = 0.0
    empty = (np.empty(0, dtype=int),) * 2 + (np.empty(0),)  # if no sector
    found = (moments, *map(np.concatenate, zip(empty, *reversed(pairs))))
    for array in found:
        array.setflags(write=False)
    matrix._partners_by_spec[spec] = found
    return found


def classify(matrix: MomentMatrix, spec: DegeneracySpec) -> ZeemanReport:
    """Classify each state as LINEAR, QUADRATIC, or NONE.

    The slope of state k is minus its first-order moment eigenvalue.
    """
    moments, rows, cols, _coupling = _partners(matrix, spec)
    labels = matrix.labels
    partner_labels = np.array(labels, dtype=object)[cols].tolist()
    counts = np.bincount(rows, minlength=matrix.size)
    ends = np.cumsum(counts).tolist()
    # _partners zeroed the moments within ZERO_TOL
    kinds = np.where(moments != 0.0, Classification.LINEAR,
                     np.where(counts > 0, Classification.QUADRATIC,
                              Classification.NONE)).tolist()
    scaled = moments * matrix.basis.system.mu0
    # StateReport's constructor only sets the fields: its slots are set here
    set_label, set_kind, set_moment, set_slope, set_partners = (
        getattr(StateReport, name).__set__ for name in StateReport.__slots__)
    reports = []
    # adding to or subtracting from 0.0 makes every zero +0.0
    for label, kind, moment, slope, start, end in zip(
            labels, kinds, (scaled + 0.0).tolist(), (0.0 - scaled).tolist(),
            [0] + ends, ends):
        report = object.__new__(StateReport)
        set_label(report, label)
        set_kind(report, kind)
        set_moment(report, moment)
        set_slope(report, slope)
        set_partners(report, tuple(partner_labels[start:end]))
        reports.append(report)
    return ZeemanReport(tuple(reports))


@dataclass(eq=False)
class LevelCurves:
    """Exact eigenvalue curves E(B), tracked by eigenvector continuity.

    ``energies[i, k]`` is the energy at ``b_values[i]`` of the curve that
    starts from basis state k at B = 0.  H(B) conserves M, so a curve stays
    inside its state's M sector, and so does every near-tie in the tracking
    overlap, also where several sectors share one packed matrix of the
    solve; the tied states are recorded in ``flagged`` as (B, label) pairs.
    """

    b_values: np.ndarray
    energies: np.ndarray
    labels: tuple[str, ...]
    flagged: tuple[tuple[float, str], ...]

    def curve(self, label: str) -> np.ndarray:
        return self.energies[:, self.labels.index(label)]


def _first_fit(sizes: "list[int]") -> "list[list[int]]":
    """Indices of ``sizes`` packed into bins that hold the largest size,
    first fit by decreasing size; each bin lists its indices in the order
    they were placed."""
    capacity = max(sizes, default=0)
    packs: list[list[int]] = []
    room: list[int] = []
    for k in sorted(range(len(sizes)), key=lambda k: -sizes[k]):
        for p, free in enumerate(room):
            if sizes[k] <= free:
                packs[p].append(k)
                room[p] -= sizes[k]
                break
        else:
            packs.append([k])
            room.append(capacity - sizes[k])
    return packs


def level_curves(matrix: MomentMatrix, spec: DegeneracySpec,
                 fields) -> LevelCurves:
    """Eigenvalues of H(B) = H0 - B mu_z over a strictly increasing grid.

    H0 is diagonal in the basis and mu_z conserves M, so H(B) is zero
    between M sectors.  The sectors' blocks are placed block-diagonally,
    first fit by decreasing size, into the fewest matrices of the largest
    sector's size (4 for the 9 sectors at N = 8, 5 for 13 at N = 12), and
    each matrix is padded with a diagonal above every sector's spectrum.
    At each field the stack is solved in one complex ``eigh`` call and each
    matrix keeps its lowest eigenpairs, whose vectors come out exactly real
    and are tracked in float64.  The Householder reduction keeps the zeros
    between sectors exact, so each kept eigenvector is exactly zero outside
    its own sector.  Curves are tracked outward from B = 0, where each
    starts on its basis state; on a grid without B = 0, both marches still
    start there.  The pad, and so every entry of H(B), must be finite over
    the grid.

    The march up from B = 0 runs on one worker thread while the caller
    runs the march down; ``eigh`` releases the GIL, so their solves
    overlap.  The marches share no buffer, and each solves the same stacks
    in the same order as it would alone, so the result is bit-identical to
    running them one after the other; the up march's flags come first.  A
    march's exception is raised to the caller once both have stopped.  Two
    stacks are held at once, one per march.
    """
    _check_spec(matrix, spec)
    b_values = np.asarray(fields, dtype=float)
    if b_values.ndim != 1 or b_values.size == 0:
        raise ValueError("field grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(b_values)):
        raise ValueError("field grid must be finite")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("field grid must be strictly increasing")
    mu0 = matrix.basis.system.mu0
    blocks = tuple(matrix._blocks.values())
    packs = _first_fit([rows.size for rows, _block in blocks])
    size = max((rows.size for rows, _block in blocks), default=0)
    moment = np.zeros((len(packs), size, size))
    h0 = np.zeros((len(packs), size))
    padded = np.ones((len(packs), size), dtype=bool)
    units = []  # each packed matrix's rows, and the M sector of each row
    for k, pack in enumerate(packs):
        start = 0
        for s in pack:  # block-diagonally, in the order they were placed
            end = start + blocks[s][0].size
            moment[k, start:end, start:end] = blocks[s][1]
            start = end
        rows = np.concatenate([blocks[s][0] for s in pack])
        sector = np.repeat(pack, [blocks[s][0].size for s in pack])
        h0[k, :rows.size] = spec.energy_of[rows]
        padded[k, :rows.size] = False
        units.append((rows, sector))
    # Every eigenvalue lies within max|E| + |B| times the moment's largest
    # absolute row sum (Gershgorin); the pad sits above that, past rounding.
    # Taken in Python floats, which overflow to inf without a warning.
    largest = abs(mu0) * float(np.abs(moment).sum(axis=2).max(initial=0.0))
    top = float(np.abs(spec.energy_of).max(initial=0.0))

    def pad(b_abs: float) -> float:
        bound = top + b_abs * largest
        return bound + 1e-6 * bound + 1.0

    field = max(-float(b_values[0]), float(b_values[-1]))
    if not math.isfinite(pad(field)):
        raise ValueError(f"field {field!r} times moment {largest!r} overflows")
    fields = b_values * mu0  # the blocks are in units of mu0
    origin = int(np.searchsorted(b_values, 0.0))
    at_zero = bool(origin < b_values.size and b_values[origin] == 0.0)

    diagonal = np.arange(size)
    moment_diag = moment[:, diagonal, diagonal]
    energies = np.empty((b_values.size, matrix.size))
    if at_zero:
        energies[origin] = spec.energy_of
    labels = matrix.labels

    def march(indices, flagged: "list[tuple[float, str]]") -> None:
        stack = np.empty(moment.shape, dtype=complex)
        previous = [np.eye(rows.size) for rows, _s in units]
        for i in indices:
            # every entry is H0 - B mu, down to the sign of a zero: that sign
            # steers LAPACK's vectors in a degenerate eigenspace, and so
            # which label follows which degenerate curve
            np.multiply(moment, fields[i], out=stack)
            np.subtract(0.0, stack, out=stack)
            diag = h0 - fields[i] * moment_diag
            diag[padded] = pad(abs(b_values[i]))
            stack[:, diagonal, diagonal] = diag
            # solved complex, whose rounding the goldens pin; the vectors
            # of these real symmetric stacks come out exactly real
            w, v = np.linalg.eigh(stack)
            v = v.real
            tied, owners = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
            for k, (rows, sector) in enumerate(units):
                vectors = v[k, :rows.size, :rows.size]
                overlap = np.abs(previous[k].T @ vectors)
                curve, cols = linear_sum_assignment(-(overlap**2))
                # row r ties with column c when c's overlap comes within the
                # tolerance of r's assigned one; c's owner is the other curve,
                # which must lie in r's sector
                owner = np.argsort(cols)
                tie = overlap[curve, cols][:, None] - overlap <= TRACK_TIE_TOL
                tie &= sector[:, None] == sector[owner]
                tie[curve, cols] = False
                r, c = np.nonzero(tie)  # row-major within the packed matrix
                tied.append(rows[r])
                owners.append(rows[owner[c]])
                energies[i, rows] = w[k, cols]
                previous[k] = vectors[:, cols]
            # merged in global row order; each row's ties keep their order
            tied = np.concatenate(tied)
            order = np.argsort(tied, kind="stable")
            pairs = np.stack([tied[order], np.concatenate(owners)[order]],
                             axis=1).ravel()
            flagged.extend((b_values[i], labels[j]) for j in pairs)
            # freed before the next solve allocates its own, so that each
            # march holds one stack of eigenvectors at a time
            w = v = vectors = None

    up: list[tuple[float, str]] = []
    down: list[tuple[float, str]] = []
    raised: list[BaseException] = []

    def march_up() -> None:
        try:
            march(range(origin + at_zero, b_values.size), up)
        except BaseException as error:  # raised again below, by the caller
            raised.append(error)

    worker = threading.Thread(target=march_up, name="level_curves march up")
    worker.start()
    try:
        march(range(origin - 1, -1, -1), down)
    finally:
        worker.join()
    if raised:
        raise raised.pop()

    return LevelCurves(b_values, energies, labels,
                       tuple(dict.fromkeys(up + down)))


def quadratic_coefficients(matrix: MomentMatrix,
                           spec: DegeneracySpec) -> np.ndarray:
    """Second-order coefficients of B^2 per state.

    Uses sum over states outside the group of |<n| mu_z |m>|^2 / (E_n - E_m)
    after the within-group rotation.  Groups that are coupled by the moment
    must not share an energy.  A mu0 that would make any coefficient
    non-finite, or any value below the smallest normal float, raises
    ``ValueError`` naming it: "squared overflows" (or "underflows") where
    mu0 * mu0 itself does, "overflows (underflows) a second-order
    coefficient" where only a term coupling^2 / gap * mu0^2 does.
    """
    _moments, rows, cols, coupling = _partners(matrix, spec)
    labels = matrix.labels
    gap = spec.energy_of[rows] - spec.energy_of[cols]
    shared = np.flatnonzero(gap == 0.0)
    if shared.size:
        i, j = rows[shared[0]], cols[shared[0]]
        raise ValueError(
            f"states {labels[i]} and {labels[j]} are coupled but their "
            "groups share an energy; merge the groups"
        )
    mu0 = matrix.basis.system.mu0
    squared = mu0 * mu0
    if squared < sys.float_info.min:
        raise ValueError(f"mu0 {mu0!r} squared underflows")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = coupling * coupling / gap * squared
        # bincount adds each row's terms in ascending column order
        coefficients = np.bincount(rows, weights=terms, minlength=matrix.size)
    if not np.all(np.isfinite(coefficients)):
        raise ValueError(f"mu0 {mu0!r} squared overflows"
                         if math.isinf(squared) else
                         f"mu0 {mu0!r} overflows a second-order coefficient")
    if np.any(np.abs(terms) < sys.float_info.min):
        raise ValueError(f"mu0 {mu0!r} underflows a second-order coefficient")
    return coefficients
