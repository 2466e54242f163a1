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

import json
import math
import numbers
import re
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from .cg import cg_coefficient
from .system import (
    SpinSystem,
    Species,
    _bit_table,
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

    State labels write the intermediate spins in parentheses, and each M
    sector is in ``couple``'s plain order.  The like-pairs preset writes
    them its own way (``_LikePairsTree``).
    """

    root: tuple

    # the delimiters around the intermediate spins, the text written for
    # chosen intermediate spins, and the row order of chosen sectors, by
    # |M| (the M and -M sectors of one |M| take one order)
    _brackets = "()"
    _labels = {}
    _orders = {}

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", _normalize_node(self.root))

    def leaves(self) -> tuple[int, ...]:
        return tuple(_leaves(self.root))

    def validate_for(self, system: SpinSystem) -> None:
        leaves = self.leaves()
        if sorted(leaves) != list(range(system.n)):
            raise ValueError(
                f"tree leaves {leaves} must be a permutation of 0..{system.n - 1}"
            )

    # kept for the benchmark's workloads, which build their trees with it
    @classmethod
    def from_nested(cls, nested) -> "CouplingTree":
        return cls(nested)

    @classmethod
    def like_pairs(cls, system: SpinSystem) -> "CouplingTree":
        """Couple the electrons together, then the positrons, then both pairs.

        Requires exactly two electrons and two positrons.  The labels are
        written as ``_LikePairsTree`` sets out.
        """
        electrons = system.species_indices(Species.ELECTRON)
        positrons = system.species_indices(Species.POSITRON)
        if len(electrons) != 2 or len(positrons) != 2:
            raise ValueError(
                "like-pairs coupling needs exactly two electrons and two positrons"
            )
        return _LikePairsTree((electrons, positrons))

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
        return cls(node)

    @classmethod
    def parse(cls, text: str, system: SpinSystem) -> "CouplingTree":
        """Parse a nested-parentheses expression over particle names.

        Example: ``((e1,e2),(p1,p2))``.  Bare site indices are also accepted.
        Names and indices become site indices and parentheses JSON arrays,
        so anything but pairs nested down to the leaves is malformed.
        """
        name_map = {name: k for k, name in enumerate(system.names)}

        def leaf(match) -> str:
            token = match.group()
            if token in name_map:
                return str(name_map[token])
            if re.fullmatch("[0-9]+", token):
                return str(int(token))
            raise ValueError(
                f"unknown particle name {token!r}; valid names: "
                + ", ".join(system.names)
            )

        expr = re.sub(r"[^(),]+", leaf, re.sub(r"\s+", "", text))
        try:
            tree = cls(json.loads(expr.replace("(", "[").replace(")", "]")))
        except (ValueError, RecursionError):
            raise ValueError(f"malformed tree expression {text!r}") from None
        tree.validate_for(system)
        return tree


class _LikePairsTree(CouplingTree):
    """The like-pairs preset, labelled by the conventional multiplet tags.

    The intermediate spins go in square brackets.  The triplet-triplet
    block is written [2,2] (doubled pair spins), and the remaining
    combinations keep plain pair spins [1,0], [0,1], [0,0].  The M=0
    sector is in the conventional order, by (S, intermediate spins).
    """

    _brackets = "[]"
    _labels = {(1.0, 1.0): "2,2"}
    _orders = {
        0.0: (
            (1.0, (0.0, 1.0)),
            (0.0, (0.0, 0.0)),
            (1.0, (1.0, 0.0)),
            (2.0, (1.0, 1.0)),
            (1.0, (1.0, 1.0)),
            (0.0, (1.0, 1.0)),
        )
    }


def _frozen(cls):
    """Make ``cls`` refuse to set or delete any name with
    ``FrozenInstanceError``; its builders set slots or ``__dict__`` directly.
    On a frozen slotted dataclass the methods that ``slots=True`` keeps
    raise ``TypeError`` for a name that is no field."""
    def refuse(self, name, *value):
        verb = "assign to" if value else "delete"
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_frozen
@dataclass(frozen=True, eq=False, init=False, slots=True)
class CoupledState:
    """A |S, M, intermediates> basis vector expressed in the product basis.

    ``intermediates`` records ``(sites, spin)`` for each internal tree node
    except the root (whose spin is ``total_s``), in post-order.  Only
    ``couple`` builds states.  A state is row ``_row`` of its M sector's
    read-only ``_block``, whose columns are the sector's product indices
    ``_columns`` in ascending order; ``vector``, the amplitudes on all 2^N
    product states, is built from that row on each read.
    """

    total_s: float
    m: float
    intermediates: tuple[tuple[tuple[int, ...], float], ...]
    label: str
    system: SpinSystem
    _columns: np.ndarray = field(repr=False)
    _block: np.ndarray = field(repr=False)
    _row: int = field(repr=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("coupled states are built by couple()")

    # kept for the benchmark's traced run, which sums the vectors' sizes
    @property
    def vector(self) -> np.ndarray:
        """Read-only float64 amplitudes over the product basis."""
        vector = np.zeros(self.system.dimension)
        vector[self._columns] = self._block[self._row]
        vector.setflags(write=False)
        return vector


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


# a single site's sectors 2m = +1 and -1: |↑⟩ and |↓⟩, partial indices 0, 1
_LEAF = {1: (np.array([[1.0], [0.0]]), np.array([0]), np.array([0])),
         -1: (np.array([[1.0], [0.0]]), np.array([1]), np.array([0]))}


def _flip_signs(bits, two_j):
    """eta = (-1)^(k/2 - j) for multiplets of doubled spins ``two_j`` on
    k = ``bits`` sites: flipping every spin maps |j m> to eta |j -m>."""
    # k and 2j have one parity, so k - 2j is 0 or 2 modulo 4
    return np.where((bits - two_j) % 4, -1.0, 1.0)


def _mirrored(sectors, two_j, bits):
    """``sectors`` of a ``bits``-site subtree of doubled spins ``two_j``,
    each m > 0 joined by its -m mirror: the same rows, each times its
    multiplet's exact flip sign, on the partial indices with every bit
    complemented.  All are by descending m."""
    eta = _flip_signs(bits, two_j)
    flip = (1 << bits) - 1
    mirrors = {}
    for two_m, (block, columns, rows) in reversed(sectors.items()):
        if two_m > 0:
            # one sign per multiplet with a row, then 1 for the zero row
            signs = np.append(eta[rows < len(block) - 1], 1.0)
            mirrors[-two_m] = (block * signs[:, None], columns ^ flip, rows)
    return {**sectors, **mirrors}


def _shape(node):
    """``node`` with every site replaced by None."""
    if isinstance(node, int):
        return None
    return _shape(node[0]), _shape(node[1])


def _node_sites(node) -> list[tuple[int, ...]]:
    """The sites under each internal node of ``node``, in post-order."""
    if isinstance(node, int):
        return []
    return (_node_sites(node[0]) + _node_sites(node[1])
            + [tuple(_leaves(node))])


def _node_states(shape, shapes):
    """Couple a subtree of ``shape`` one M sector at a time; returns (site
    count, 2j, intermediates, sectors).

    The k-th multiplet has doubled spin ``2j[k]``, and row k of the int
    array ``intermediates`` holds the doubled spins of the internal nodes,
    in post-order, ending with this node itself.  ``sectors`` maps every
    2m, descending, to ``(block, columns, rows)``: the float64
    ``block`` holds the m vectors of the multiplets with j >= |m|, in list
    order, over the partial indices ``columns`` (the k-th leaf being the
    most significant bit), and then a row of zeros; ``rows`` gives each
    multiplet's row, the zero row for the others.  None of it depends on
    which sites the leaves are, so ``shapes`` keeps each child shape's
    result for every later subtree of that shape.

    A pair of child multiplets at m1 and m - m1 fills the columns of that
    (m1, m - m1) slot of an m >= 0 sector, its m vector there being the
    kron of the children's rows times one CG value, the one nonzero term of
    the CG sum.  The -m sectors are the m sectors mirrored (``_mirrored``).
    """
    if shape is None:  # a copy of _LEAF, as ``couple`` empties the root's
        two_j = np.ones(1, dtype=np.int64)
        return 1, two_j, np.empty((1, 0), dtype=np.int64), dict(_LEAF)
    for child in shape:
        if child not in shapes:
            shapes[child] = _node_states(child, shapes)
    bits_l, two_j_l, inter_l, sectors_l = shapes[shape[0]]
    shift, two_j_r, inter_r, sectors_r = shapes[shape[1]]
    qa, qb, two_j = np.array(
        [(a, b, two) for a, ja in enumerate(two_j_l.tolist())
         for b, jb in enumerate(two_j_r.tolist())
         for two in range(ja + jb, abs(ja - jb) - 1, -2)]).T
    inter = np.column_stack([inter_l[qa], inter_r[qb], two_j])
    two_ja, two_jb = two_j_l[qa], two_j_r[qb]
    # every multiplet's CG table, flattened into one array at ``base``
    keys = list(zip((two_ja / 2.0).tolist(), (two_jb / 2.0).tolist(),
                    (two_j / 2.0).tolist()))
    tables = {key: _cg_table(*key) for key in dict.fromkeys(keys)}
    sizes = [table.size for table in tables.values()]
    starts = dict(zip(tables, np.cumsum([0] + sizes).tolist()))
    flat = np.concatenate([t.ravel() for t in tables.values()])
    base = np.array([starts[key] for key in keys])
    # The entry for (M, m1, M - m1) is at base + (J - M) w + (j_a - m1) d
    # + (j_b - M + m1), with d = 2 j_b + 1 and w = (2 j_a + 1) d.  In
    # doubled spins that is (twice_base - 2M (w + 1) - 2m1 (2 j_b)) / 2.
    twice_base = (2 * base + two_j * (two_ja + 1) * (two_jb + 1)
                  + two_ja * (two_jb + 1) + two_jb)
    sectors = {}
    for two_m in range(int(two_j.max()), -1, -2):
        order = np.flatnonzero(two_j >= two_m)
        a, b, jb = qa[order], qb[order], two_jb[order]
        twice = (twice_base[order]
                 - two_m * ((two_ja[order] + 1) * (jb + 1) + 1))
        slots = [(m1, two_m - m1) for m1 in sectors_l
                 if two_m - m1 in sectors_r]
        widths = [sectors_l[m1][1].size * sectors_r[m2][1].size
                  for m1, m2 in slots]
        block = np.empty((order.size + 1, sum(widths)))
        block[-1] = 0.0
        columns = np.empty(sum(widths), dtype=np.int64)
        start = 0
        for (two_m1, two_m2), width in zip(slots, widths):
            left, cols_l, rows_l = sectors_l[two_m1]
            right, cols_r, rows_r = sectors_r[two_m2]
            # a pair without states at m1 and M - m1 reads a zero row, so
            # the table value it gets, clipped into range, multiplies 0
            cg = flat.take((twice - two_m1 * jb) // 2, mode="clip")
            stop = start + width
            view = block[:order.size, start:stop].reshape(
                order.size, cols_l.size, cols_r.size)
            np.multiply(left[rows_l[a]][:, :, None],
                        right[rows_r[b]][:, None, :], out=view)
            view *= cg[:, None, None]
            columns[start:stop] = ((cols_l[:, None] << shift)
                                   | cols_r[None, :]).ravel()
            start = stop
        rows = np.full(two_j.size, order.size)
        rows[order] = np.arange(order.size)
        sectors[two_m] = (block, columns, rows)
    bits = bits_l + shift
    return bits, two_j, inter, _mirrored(sectors, two_j, bits)


def _site_permutation(sites: list[int], n: int) -> np.ndarray:
    """Map partial-space indices (ordered by ``sites``) to product indices.

    Bit k of a partial index, counted from the most significant, is the bit
    of site ``sites[k]``.
    """
    return _bit_table(n) @ (1 << (n - 1 - np.asarray(sites, dtype=np.int64)))


@_frozen
class BasisTransform(tuple):
    """A frozen tuple of coupled states, with their amplitudes by M.

    ``couple`` returns a whole basis and ``m_sector`` cuts one M sector out
    of one; nothing else builds a transform.  It keeps the states'
    ``system``; ``columns``, the product index of each column, read-only
    int64; ``row_labels``; and ``_sectors``, ``{M: (rows, product indices,
    block)}`` in ascending M: the consecutive rows of M and their read-only
    amplitudes on M's product indices, every other amplitude being zero.
    Per state it keeps the read-only ``_flips``, the sign
    eta = (-1)^(N/2 - S) of |S M> -> eta |S -M> under the spin flip
    (``_flip_signs``), ``_multiplets``, the number of the state's
    multiplet, the same at every M, and ``_two_s``, twice its total spin,
    as int8.  A slice or sum is a plain tuple.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "basis transforms are built by couple() and m_sector()")

    @property
    def matrix(self) -> np.ndarray:
        """Read-only float64 amplitudes, built from the sectors."""
        matrix = np.zeros((len(self), self.columns.size))
        for rows, cols, block in self._sectors.values():
            matrix[np.ix_(rows, np.searchsorted(self.columns, cols))] = block
        matrix.setflags(write=False)
        return matrix

    @property
    def column_labels(self) -> tuple[str, ...]:
        """The column kets, such as ``|↑↓⟩``; bit 1 means down."""
        bits = _bit_table(self.system.n)[self.columns]
        arrows = np.array(["↑", "↓"])[bits]
        return tuple(f"|{''.join(row)}⟩" for row in arrows.tolist())


def _basis(basis) -> BasisTransform:
    """``basis``, if ``couple`` built it; the basis functions take no other,
    and no M sector of one."""
    if not isinstance(basis, BasisTransform):
        raise TypeError(f"expected a basis built by couple(), got a "
                        f"{type(basis).__name__}")
    if len(basis) != basis.system.dimension:
        raise TypeError("expected a basis built by couple(), got an M sector")
    return basis


def couple(system: SpinSystem, tree: CouplingTree) -> BasisTransform:
    """Build the complete coupled basis for a system along a tree.

    The basis is a ``BasisTransform`` of 2^N orthonormal simultaneous
    S^2/S_z eigenstates over all 2^N product states, by descending M and,
    within each M sector, by descending total spin and then descending
    intermediate spins (a preset may fix the order of the sectors of one
    |M| to match the conventional presentation).  The states of one M
    sector are the rows of one read-only float64 block over that sector's
    product states; no 2^N-wide array is built.  The sectors are coupled
    by Clebsch-Gordan products, each M < 0 one as the mirror of +M
    (``_node_states``), so the +M and -M rows are the same multiplets in
    one order, and every state's norm is checked.  Subtrees of equal shape
    are coupled once per call; nothing is kept from one call to the next.
    """
    tree.validate_for(system)
    _bits, two_s, inter, sectors = _node_states(_shape(tree.root), {})
    keys = _node_sites(tree.root)[:-1]  # without the root
    doubled = inter[:, :len(keys)]
    total = (two_s / 2).tolist()
    # each multiplet's label is head + M + tail, every spin formatted once
    names = [format_spin(two / 2) for two in range(int(two_s.max()) + 1)]
    heads = [f"|{names[two]}," for two in two_s.tolist()]
    # one (sites, spin) pair per node and spin, shared by the multiplets
    pairs = [[(sites, two / 2) for two in range(len(names))] for sites in keys]
    inner, spins, tails = [], [], []
    for row in doubled.tolist():
        inner.append(tuple([node[two] for node, two in zip(pairs, row)]))
        spins.append(tuple([spin for _sites, spin in inner[-1]]))
        text = (tree._labels.get(spins[-1])
                or ",".join([names[two] for two in row]))
        tails.append(f"{tree._brackets[0]}{text}{tree._brackets[1]}⟩"
                     if row else "⟩")
    # within a sector: descending S, then descending intermediate spins,
    # unless the tree fixes that sector's order; no two multiplets tie
    rank = np.empty(two_s.size, dtype=np.int64)
    rank[np.lexsort(-np.column_stack([two_s, doubled]).T[::-1])] = \
        np.arange(two_s.size)
    permutation = _site_permutation(tree.leaves(), system.n)
    # CoupledState has no constructor to run: its slots are set here
    (set_s, set_m, set_intermediates, set_label, set_system, set_columns,
     set_block, set_row) = (getattr(CoupledState, name).__set__
                            for name in CoupledState.__slots__)
    states, records, numbers = [], {}, []
    for two_m in list(sectors):  # popped, so each used block is freed
        block, partial, rows = sectors.pop(two_m)
        mm = two_m / 2
        order = np.flatnonzero(rows < len(block) - 1)
        fixed = tree._orders.get(abs(mm))
        if fixed is None:
            by_key = np.argsort(rank[order])
        else:
            by_key = np.argsort([fixed.index((total[k], spins[k]))
                                 for k in order.tolist()])
        multiplets = order[by_key]
        product = permutation[partial]
        by_index = np.argsort(product)
        columns = product[by_index]
        # a product with a zero row or a zero CG value, or a zero times a
        # flip sign of -1, may be -0.0; adding 0.0 makes it 0.0, as the sum
        # over the CG table did
        block = np.take(np.take(block, by_key, axis=0), by_index, axis=1)
        block += 0.0
        # written so that a NaN norm fails it
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
        if off.size:
            raise ValueError(
                f"state vector norm {norms[off[0]]} deviates from 1")
        columns.setflags(write=False)
        block.setflags(write=False)
        records[mm] = (np.arange(len(states), len(states) + block.shape[0]),
                       columns, block)
        numbers.append(multiplets)
        tail = format_spin(mm)
        for row, k in enumerate(multiplets.tolist()):
            state = object.__new__(CoupledState)
            set_s(state, total[k])
            set_m(state, mm)
            set_intermediates(state, inner[k])
            set_label(state, heads[k] + tail + tails[k])
            set_system(state, system)
            set_columns(state, columns)
            set_block(state, block)
            set_row(state, row)
            states.append(state)
    multiplets = np.concatenate(numbers)
    # BasisTransform has no constructor to run: its fields are set here;
    # 2S <= 2N fits in int8
    basis = tuple.__new__(BasisTransform, states)
    basis.__dict__.update(
        system=system, columns=np.arange(system.dimension),
        row_labels=tuple([state.label for state in states]),
        _sectors=dict(sorted(records.items())),
        _flips=_flip_signs(system.n, two_s[multiplets]),
        _multiplets=multiplets, _two_s=two_s[multiplets].astype(np.int8))
    for name in ("columns", "_flips", "_multiplets", "_two_s"):
        getattr(basis, name).setflags(write=False)
    return basis


def m_sector(basis: BasisTransform, m: float) -> BasisTransform:
    """The one-sector transform of ``basis``'s states with projection ``m``,
    over the product states with that M.  ``m`` must be a finite integer or
    half-integer; one that no state has yields an empty block, no error.
    """
    system = _basis(basis).system
    if (isinstance(m, bool) or not isinstance(m, numbers.Real)
            or not math.isfinite(2 * m) or (2 * m) % 1):
        raise ValueError(
            f"m must be a finite integer or half-integer, got {m!r}")
    start = stop = 0
    sectors = {}
    if m in basis._sectors:
        rows, cols, block = basis._sectors[m]
        start, stop = rows[0], rows[-1] + 1
        sectors[m] = (rows - start, cols, block)
    columns = product_states_with_m(system.n, m)
    columns.setflags(write=False)
    sector = tuple.__new__(BasisTransform, basis[start:stop])
    sector.__dict__.update(
        system=system, columns=columns, _sectors=sectors,
        **{name: getattr(basis, name)[start:stop] for name in
           ("row_labels", "_flips", "_multiplets", "_two_s")})
    return sector


def full_transform(basis: BasisTransform) -> BasisTransform:
    """The square transform over the complete product basis: ``basis``
    itself, once checked to be a whole basis built by ``couple``."""
    return _basis(basis)


def scheme_overlap(basis_a: BasisTransform,
                   basis_b: BasisTransform) -> np.ndarray:
    """Overlap matrix <a_i|b_j> between two bases built by ``couple``.

    Both bases conserve M, so the real matrix is assembled from one product
    of the two bases' blocks per M sector, and entries between different M
    are exact zeros.  Both bases must share one species order.
    """
    system_a, system_b = _basis(basis_a).system, _basis(basis_b).system
    if system_a.species != system_b.species:
        raise ValueError(
            f"bases belong to different systems: {','.join(system_a.names)}"
            f" vs {','.join(system_b.names)}")
    overlap = np.zeros((system_a.dimension, system_a.dimension))
    for m, (rows, _cols, block) in basis_a._sectors.items():
        rows_b, _cols, block_b = basis_b._sectors[m]
        if block_b is block:
            # numpy takes the symmetric BLAS product for one buffer
            # times its transpose; that rounds unlike the general one
            block_b = block_b.copy()
        # each sector's rows are consecutive in both bases
        overlap[rows[0]:rows[-1] + 1, rows_b[0]:rows_b[-1] + 1] = \
            block @ block_b.T
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


def classify_exchange(basis: BasisTransform,
                      pairs: "list[tuple[int, int]]"):
    """Exchange eigenvalue (+1, -1, or 'mixed') per state per site pair.

    A site swap keeps M, so it maps each M sector's columns onto
    themselves, and each sector's block is compared with its swapped copy.
    """
    n = _basis(basis).system.n
    permutations = [_swap_permutation(n, i, j) for i, j in pairs]
    results = [[] for _state in basis]
    for rows, cols, block in basis._sectors.values():
        for perm in permutations:
            swapped = block[:, np.searchsorted(cols, perm[cols])]
            even = np.max(np.abs(swapped - block), axis=1) <= EXCHANGE_TOL
            odd = np.max(np.abs(swapped + block), axis=1) <= EXCHANGE_TOL
            for k, plus, minus in zip(rows.tolist(), even.tolist(),
                                      odd.tolist()):
                results[k].append(+1 if plus else -1 if minus else "mixed")
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
