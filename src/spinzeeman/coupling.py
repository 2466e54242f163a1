"""Sequential angular-momentum coupling along binary trees of spin-1/2 sites.

A coupling tree prescribes the order in which particle spins are combined
pairwise.  Different trees give differently labeled orthonormal bases of the
same product space.  For a system of two electrons and two positrons the two
presets are:

* ``like_pairs``: electrons coupled together and positrons coupled together,
  labels rendered in square brackets, e.g. ``|1,1[1,0]>``;
* ``positronium_pairs``: each electron coupled with a positron ("atoms"),
  then the atoms coupled, labels in parentheses, e.g. ``|1,1(1,0)>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cg import cg_coefficient
from .system import (
    SpinSystem,
    Species,
    _bit_table,
    _projections,
    product_states_with_m,
)

NORM_TOL = 1e-12
EXCHANGE_TOL = 1e-10


def format_spin(value: float) -> str:
    """Render a spin quantum number: integers plain, halves as 'k/2'."""
    if value == int(value):
        return str(int(value))
    return f"{int(round(2 * value))}/2"


def _normalize_node(node) -> "int | tuple":
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (tuple, list)) and len(node) == 2:
        return (_normalize_node(node[0]), _normalize_node(node[1]))
    raise ValueError(
        f"tree node must be a site index or a pair of subtrees, got {node!r}"
    )


def _leaves(node) -> list[int]:
    if isinstance(node, int):
        return [node]
    return _leaves(node[0]) + _leaves(node[1])


@dataclass(frozen=True, eq=False)
class CouplingTree:
    """Binary tree over particle indices prescribing pairwise coupling.

    ``brackets`` selects the delimiter pair used around intermediate spins in
    state labels.  ``intermediate_labels`` may override the rendered text for
    specific intermediate-spin combinations, and ``sector_orders`` may fix an
    explicit row order for chosen M sectors (both are used by the
    dipositronium presets to match the conventional presentation).
    """

    root: tuple
    brackets: str = "()"
    intermediate_labels: "dict[tuple, str] | None" = field(default=None)
    sector_orders: "dict[float, tuple] | None" = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", _normalize_node(self.root))
        if len(self.brackets) != 2:
            raise ValueError("brackets must be a two-character string")

    def leaves(self) -> tuple[int, ...]:
        return tuple(_leaves(self.root))

    def validate_for(self, system: SpinSystem) -> None:
        leaves = self.leaves()
        if sorted(leaves) != list(range(system.n)):
            raise ValueError(
                f"tree leaves {leaves} must be a permutation of 0..{system.n - 1}"
            )

    @classmethod
    def from_nested(cls, nested, brackets: str = "()") -> "CouplingTree":
        return cls(_normalize_node(nested), brackets=brackets)

    @classmethod
    def like_pairs(cls, system: SpinSystem) -> "CouplingTree":
        """Couple the electrons together, then the positrons, then both pairs.

        Requires exactly two electrons and two positrons.  Intermediate
        labels follow the conventional multiplet tags for this scheme: the
        triplet-triplet block is written [2,2] (doubled pair spins), the
        remaining combinations keep plain pair spins [1,0], [0,1], [0,0].
        """
        electrons = system.species_indices(Species.ELECTRON)
        positrons = system.species_indices(Species.POSITRON)
        if len(electrons) != 2 or len(positrons) != 2:
            raise ValueError(
                "like-pairs coupling needs exactly two electrons and two positrons"
            )
        order = {
            0.0: (
                (1.0, (0.0, 1.0)),
                (0.0, (0.0, 0.0)),
                (1.0, (1.0, 0.0)),
                (2.0, (1.0, 1.0)),
                (1.0, (1.0, 1.0)),
                (0.0, (1.0, 1.0)),
            )
        }
        return cls(
            (tuple(electrons), tuple(positrons)),
            brackets="[]",
            intermediate_labels={(1.0, 1.0): "2,2"},
            sector_orders=order,
        )

    @classmethod
    def positronium_pairs(cls, system: SpinSystem) -> "CouplingTree":
        """Couple each electron with a positron, then couple the atoms."""
        electrons = system.species_indices(Species.ELECTRON)
        positrons = system.species_indices(Species.POSITRON)
        if not electrons or len(electrons) != len(positrons):
            raise ValueError(
                "positronium-pairs coupling needs equally many electrons "
                "and positrons"
            )
        atoms = [(e, p) for e, p in zip(electrons, positrons)]
        node = atoms[0]
        for atom in atoms[1:]:
            node = (node, atom)
        return cls(node, brackets="()")

    @classmethod
    def parse(cls, text: str, system: SpinSystem) -> "CouplingTree":
        """Parse a nested-parentheses expression over particle names.

        Example: ``((e1,e2),(p1,p2))``.  Bare site indices are also accepted.
        """
        name_map = {name: k for k, name in enumerate(system.names)}
        pos = 0
        expr = text.replace(" ", "")

        def parse_node():
            nonlocal pos
            if pos >= len(expr):
                raise ValueError(f"unexpected end of tree expression {text!r}")
            if expr[pos] == "(":
                pos += 1
                left = parse_node()
                if pos >= len(expr) or expr[pos] != ",":
                    raise ValueError(
                        f"expected ',' inside tree expression {text!r}"
                    )
                pos += 1
                right = parse_node()
                if pos >= len(expr) or expr[pos] != ")":
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                pos += 1
                return (left, right)
            start = pos
            while pos < len(expr) and expr[pos] not in "(),":
                pos += 1
            token = expr[start:pos]
            if not token:
                raise ValueError(f"empty leaf in tree expression {text!r}")
            if token in name_map:
                return name_map[token]
            if token.isdigit():
                return int(token)
            raise ValueError(
                f"unknown particle name {token!r}; valid names: "
                + ", ".join(system.names)
            )

        root = parse_node()
        if pos != len(expr):
            raise ValueError(f"trailing characters in tree expression {text!r}")
        tree = cls(root)
        tree.validate_for(system)
        return tree


def _read_only_real(array, what: str) -> np.ndarray:
    """``array`` as a read-only, finite float64 array.

    A nonzero imaginary part raises ``ValueError("<what> must be real")``
    and a NaN or infinite value ``ValueError("<what> must be finite")``.  A
    read-only float64 input, such as a row of ``couple``'s basis, is kept
    without a copy; any other input is copied, so later changes to it
    change nothing.
    """
    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        if np.any(arr.imag):
            raise ValueError(f"{what} must be real")
        arr = arr.real
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if arr.dtype != np.float64 or arr.flags.writeable:
        arr = arr.astype(float)
        arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set as
    given, without running ``__post_init__``.  For callers that have
    already checked the fields in bulk."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class CoupledState:
    """A |S, M, intermediates> basis vector expressed in the product basis.

    ``intermediates`` records ``(sites, spin)`` for each internal tree node
    except the root (whose spin is ``total_s``), in post-order.
    """

    total_s: float
    m: float
    intermediates: tuple[tuple[tuple[int, ...], float], ...]
    vector: np.ndarray
    label: str
    system: SpinSystem

    def __post_init__(self) -> None:
        vec = _read_only_real(self.vector, "state vector amplitudes")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1")
        object.__setattr__(self, "vector", vec)

    @property
    def intermediate_spins(self) -> tuple[float, ...]:
        return tuple(spin for _sites, spin in self.intermediates)


# CG tables built so far, by (coefficient function, j1, j2, J)
_CG_TABLES: dict = {}


def _cg_table(j1: float, j2: float, jj: float) -> np.ndarray:
    """<j1 m1; j2 m2 | J M> as a read-only (2J+1, (2j1+1)(2j2+1)) array.

    Row r holds M = J - r; column a (2j2+1) + b holds m1 = j1 - a and
    m2 = j2 - b.  Only entries with m1 + m2 = M are looked up.  A table is
    built once per process.  It is kept by the ``cg_coefficient`` in use as
    well as by the spins, so a replaced ``cg_coefficient`` is always called.
    """
    key = (cg_coefficient, j1, j2, jj)
    table = _CG_TABLES.get(key)
    if table is not None:
        return table
    dim1 = int(round(2 * j1)) + 1
    dim2 = int(round(2 * j2)) + 1
    two_j = int(round(2 * jj))
    table = np.zeros((two_j + 1, dim1 * dim2))
    for row in range(two_j + 1):
        mm = jj - row
        for a in range(dim1):
            m1 = j1 - a
            b = int(round(j2 - (mm - m1)))
            if 0 <= b < dim2:
                table[row, a * dim2 + b] = cg_coefficient(
                    j1, m1, j2, mm - m1, jj, mm)
    table.setflags(write=False)
    _CG_TABLES[key] = table
    return table


def _node_states(node):
    """Couple a subtree; returns (site order, entries).

    Each entry is ``(j, intermediates, amplitudes)``: row r of the
    ``(2j+1, 2^k)`` float64 array is the m = j - r vector over the subtree's
    partial space, the k-th listed site being the most significant bit.
    ``intermediates`` includes this node itself as its last element.
    """
    if isinstance(node, int):
        return [node], [(0.5, (), np.eye(2))]  # rows: up, down
    sites_l, entries_l = _node_states(node[0])
    sites_r, entries_r = _node_states(node[1])
    sites = sites_l + sites_r
    site_key = tuple(sites)
    entries = []
    for j1, inter1, amps1 in entries_l:
        for j2, inter2, amps2 in entries_r:
            # row (m1, m2), m1 major: kron of the two multiplets' rows
            pairs = amps1[:, None, :, None] * amps2[None, :, None, :]
            pairs = pairs.reshape(-1, 1 << len(sites))
            two_j_max = int(round(2 * (j1 + j2)))
            two_j_min = int(round(2 * abs(j1 - j2)))
            for two_j in range(two_j_max, two_j_min - 1, -2):
                jj = two_j / 2.0
                entries.append(
                    (jj, inter1 + inter2 + ((site_key, jj),),
                     _cg_table(j1, j2, jj) @ pairs)
                )
    return sites, entries


def _site_permutation(sites: list[int], n: int) -> np.ndarray:
    """Map partial-space indices (ordered by ``sites``) to product indices.

    Bit k of a partial index, counted from the most significant, is the bit
    of site ``sites[k]``.
    """
    return _bit_table(n) @ (1 << (n - 1 - np.asarray(sites, dtype=np.int64)))


def _decoration(tree: CouplingTree, inter_spins: tuple[float, ...]) -> str:
    """The bracketed intermediate spins of a multiplet's labels."""
    if not inter_spins:
        return ""
    text = None
    if tree.intermediate_labels:
        text = tree.intermediate_labels.get(inter_spins)
    if text is None:
        text = ",".join(format_spin(s) for s in inter_spins)
    return tree.brackets[0] + text + tree.brackets[1]


def couple(system: SpinSystem, tree: CouplingTree) -> list[CoupledState]:
    """Build the complete coupled basis for a system along a tree.

    Returns 2^N orthonormal simultaneous S^2/S_z eigenstates, ordered by
    descending M and, within each M sector, by descending total spin and
    then descending intermediate spins (presets may override a sector's
    order to match the conventional presentation).  The vectors are
    read-only float64 rows of one 2^N x 2^N array.
    """
    tree.validate_for(system)
    sites, entries = _node_states(tree.root)
    partial = np.concatenate([amps for _j, _inter, amps in entries])
    if partial.shape[0] != system.dimension:
        raise RuntimeError(
            f"coupling produced {partial.shape[0]} states for dimension "
            f"{system.dimension}"
        )
    # column perm[k] of the basis is column k of partial: gather, not scatter
    order = np.argsort(_site_permutation(sites, system.n))
    basis = np.take(partial, order, axis=1)
    basis.setflags(write=False)
    # every row at once, so the states below skip CoupledState's own check;
    # written so that a NaN norm fails it
    norms = np.sqrt(np.einsum("ij,ij->i", basis, basis))
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if off.size:
        raise ValueError(f"state vector norm {norms[off[0]]} deviates from 1")
    states = []
    keys = []
    for total_s, inter, amps in entries:
        inner = inter[:-1]  # the root's spin is the total spin itself
        inter_spins = tuple(spin for _sites, spin in inner)
        decoration = _decoration(tree, inter_spins)
        head = f"|{format_spin(total_s)},"
        # within a sector: descending S, then descending intermediate spins,
        # unless the tree fixes that sector's order
        plain = (-total_s, tuple(-s for s in inter_spins))
        for step in range(amps.shape[0]):
            mm = total_s - step
            fixed = tree.sector_orders.get(mm) if tree.sector_orders else None
            keys.append((-mm, plain if fixed is None
                         else (fixed.index((total_s, inter_spins)),)))
            states.append(_unchecked(
                CoupledState,
                total_s=total_s,
                m=mm,
                intermediates=inner,
                vector=basis[len(states)],
                label=f"{head}{format_spin(mm)}{decoration}⟩",
                system=system,
            ))
    return [states[k] for k in sorted(range(len(states)), key=keys.__getitem__)]


@dataclass(frozen=True, eq=False)
class BasisTransform:
    """Rectangular block of coupled-state amplitudes over product states.

    ``columns`` holds the product index of each column as a read-only int64
    array; ``matrix`` is a read-only float64 array, coupled amplitudes being
    real.
    """

    states: tuple[CoupledState, ...]
    columns: np.ndarray
    matrix: np.ndarray
    system: SpinSystem

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns)
        if cols.dtype != np.int64 or cols.flags.writeable:
            cols = cols.astype(np.int64)
            cols.setflags(write=False)
        dim = self.system.dimension
        if cols.ndim != 1 or np.any((cols < 0) | (cols >= dim)):
            raise ValueError(f"columns must be product indices below {dim}")
        mat = _read_only_real(self.matrix, "basis amplitudes")
        expected = (len(self.states), cols.size)
        if mat.shape != expected and mat.size > 0:
            raise ValueError(f"matrix shape {mat.shape} does not match {expected}")
        mat = mat.reshape(expected)
        mat.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "matrix", mat)

    @property
    def row_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)

    @property
    def column_labels(self) -> tuple[str, ...]:
        """The column kets, such as ``|↑↓⟩``; bit 1 means down."""
        bits = _bit_table(self.system.n)[self.columns]
        arrows = np.array(["↑", "↓"])[bits]
        return tuple(f"|{''.join(row)}⟩" for row in arrows.tolist())


def m_sector(states: "list[CoupledState]", m: float) -> BasisTransform:
    """Sub-block of the basis transform for one spin projection.

    An empty sector yields an empty block rather than an error.
    """
    if not states:
        raise ValueError("no coupled states supplied")
    system = states[0].system
    selected = tuple(s for s in states if s.m == m)
    columns = product_states_with_m(system.n, m)
    matrix = np.array([s.vector[columns] for s in selected])
    matrix.setflags(write=False)
    return BasisTransform(selected, columns, matrix, system)


def full_transform(states: "list[CoupledState]") -> BasisTransform:
    """Square transform over the complete product basis."""
    if not states:
        raise ValueError("no coupled states supplied")
    system = states[0].system
    matrix = np.array([s.vector for s in states])
    matrix.setflags(write=False)
    return BasisTransform(tuple(states), np.arange(system.dimension), matrix,
                          system)


def _m_sectors(rows_of, row_m: np.ndarray, col_m: np.ndarray,
               tol: float) -> dict:
    """Split a basis by the M of its rows, one slab of rows per sector.

    ``rows_of(rows)`` returns the amplitudes of the given rows on every
    column.  Returns ``{M: (rows, columns, block)}`` in ascending M: the row
    and column indices of the sector and the amplitudes of those rows on
    those columns.  An amplitude above ``tol`` outside its row's sector
    raises ``ValueError`` naming the lowest such M and that sector's
    largest leak.
    """
    sectors = {}
    for m in np.unique(row_m):
        rows = np.flatnonzero(row_m == m)
        cols = np.flatnonzero(col_m == m)
        slab = rows_of(rows)
        # largest |amplitude| per column; fmax skips NaN, as ``>`` does
        peak = np.fmax(np.fmax.reduce(slab, axis=0),
                       -np.fmin.reduce(slab, axis=0))
        leak = np.fmax.reduce(peak[col_m != m], initial=0.0)
        if leak > tol:
            raise ValueError(
                f"basis rows of M={m:g} leave their M sector (amplitude "
                f"{leak:.3e})"
            )
        sectors[m] = (rows, cols, np.take(slab, cols, axis=1))
    return sectors


def scheme_overlap(basis_a: "list[CoupledState]",
                   basis_b: "list[CoupledState]") -> np.ndarray:
    """Overlap matrix <a_i|b_j> between two complete coupled bases.

    Both bases conserve M, so the real matrix is assembled from one product
    per M sector, and entries between different M are exact zeros.  Each
    basis is gathered one M sector at a time, never as a whole.
    """
    if not basis_a or not basis_b:
        raise ValueError("empty basis")
    shape_a = (len(basis_a), basis_a[0].vector.size)
    shape_b = (len(basis_b), basis_b[0].vector.size)
    if shape_a != shape_b:
        raise ValueError(f"basis dimensions differ: {shape_a} vs {shape_b}")
    if shape_a[0] != shape_a[1]:
        raise ValueError("both bases must be complete (square transforms)")
    col_m = _projections(basis_a[0].system.n)

    def sectors(basis):
        return _m_sectors(
            lambda rows: np.array([basis[k].vector for k in rows]),
            np.array([s.m for s in basis]), col_m, NORM_TOL)

    sectors_b = sectors(basis_b)
    overlap = np.zeros(shape_a)
    for m, (rows, _cols, block) in sectors(basis_a).items():
        if m in sectors_b:
            rows_b, _cols, block_b = sectors_b[m]
            overlap[np.ix_(rows, rows_b)] = block @ block_b.T
    return overlap


def _swap_permutation(n: int, i: int, j: int) -> np.ndarray:
    """Product-index permutation transposing the bits of sites i and j."""
    if i == j:
        raise ValueError("exchange requires two distinct sites")
    for site in (i, j):
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} particles")
    sites = list(range(n))
    sites[i], sites[j] = j, i
    return _site_permutation(sites, n)


def classify_exchange(states: "list[CoupledState]",
                      pairs: "list[tuple[int, int]]"):
    """Exchange eigenvalue (+1, -1, or 'mixed') per state per site pair."""
    if not states:
        raise ValueError("no coupled states supplied")
    n = states[0].system.n
    permutations = [_swap_permutation(n, i, j) for i, j in pairs]
    results = []
    for state in states:
        row = []
        for perm in permutations:
            swapped = state.vector[perm]
            if np.max(np.abs(swapped - state.vector)) <= EXCHANGE_TOL:
                row.append(+1)
            elif np.max(np.abs(swapped + state.vector)) <= EXCHANGE_TOL:
                row.append(-1)
            else:
                row.append("mixed")
        results.append(row)
    return results


def like_species_pairs(system: SpinSystem) -> list[tuple[int, int]]:
    """All transpositions of identical particles, electrons first."""
    pairs = []
    for species in (Species.ELECTRON, Species.POSITRON):
        indices = system.species_indices(species)
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                pairs.append((indices[a], indices[b]))
    return pairs
