"""The package's public names.

The dense complex operators are test-side oracles (``dense_operators``), not
part of the library, the product basis is a bit table, not per-ket
objects, and only the library builds coupled states, transforms and moment
matrices, from per-M blocks.  The basis functions take only the basis that
``couple`` returns.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle

import numpy as np
import pytest

import spinzeeman
from spinzeeman import (
    BasisTransform,
    CoupledState,
    CouplingTree,
    LevelCurves,
    MomentMatrix,
    SpinSystem,
    ZeemanReport,
    classify_exchange,
    couple,
    full_transform,
    m_sector,
    moment_matrix,
    scheme_overlap,
)
from spinzeeman import coupling, zeeman

PUBLIC = [
    "BasisTransform",
    "Classification",
    "CoupledState",
    "CouplingTree",
    "DegeneracySpec",
    "LevelCurves",
    "MAX_PARTICLES",
    "MomentMatrix",
    "Species",
    "SpinSystem",
    "StateReport",
    "ZeemanReport",
    "cg_coefficient",
    "classify",
    "classify_exchange",
    "couple",
    "format_spin",
    "full_transform",
    "level_curves",
    "like_species_pairs",
    "m_sector",
    "moment_matrix",
    "quadratic_coefficients",
    "scheme_overlap",
    "species_from_name",
    "__version__",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) <= 26
    assert spinzeeman.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(spinzeeman, name), name


def test_dense_operators_left_the_library():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("spinzeeman.operators")
    for name in ("ProductState", "Operator", "exchange_operator",
                 "product_states_with_m", "moment_diagonal"):
        assert not hasattr(spinzeeman, name), name
    assert not hasattr(coupling, "exchange_operator")
    # m_sector looks the index helper up in its own module by this name
    assert callable(coupling.product_states_with_m)


def test_dense_basis_inputs_left_the_library():
    for owner, name in ((coupling, "_m_sectors"),
                        (coupling, "_unchecked"),
                        (zeeman, "_unchecked"),
                        (BasisTransform, "_sector_blocks"),
                        (BasisTransform, "_from_sectors"),
                        (MomentMatrix, "_from_blocks")):
        assert not hasattr(owner, name), name
    system = SpinSystem.positronium()
    # only couple builds states, and transforms take per-M blocks
    with pytest.raises(TypeError, match="couple"):
        CoupledState(0.0, 0.0, (), np.array([0.0, 1.0, 0.0, 0.0]), "|0,0⟩",
                     system)
    # and only the library's builders make transforms and moment matrices
    states = couple(system, CouplingTree.positronium_pairs(system))
    full = full_transform(states)
    with pytest.raises(TypeError):
        BasisTransform(tuple(full), full.columns, full.matrix, system)
    with pytest.raises(TypeError, match=r"couple\(\) and m_sector\(\)"):
        BasisTransform(full)
    blocks = [block for _rows, block in moment_matrix(full)._blocks.values()]
    with pytest.raises(TypeError, match=r"moment_matrix\(\)"):
        MomentMatrix(full, blocks)
    assert not hasattr(coupling, "_read_only_real")
    assert not hasattr(spinzeeman, "ParticleSpec")
    for tree in (CouplingTree.positronium_pairs(system),
                 CouplingTree.like_pairs(SpinSystem.dipositronium())):
        for name in ("brackets", "intermediate_labels", "sector_orders"):
            assert not hasattr(tree, name), name


def _parameters(function):
    return tuple(inspect.signature(function).parameters)


def test_constructors_take_only_what_cannot_be_derived():
    names = [f.name for f in dataclasses.fields(CouplingTree)]
    assert names == ["root"]
    names = [f.name for f in dataclasses.fields(SpinSystem)]
    assert names == ["species", "mu0"]
    assert _parameters(CouplingTree.from_nested) == ("nested",)


def test_gathered_states_left_the_library():
    for owner, name in ((coupling, "_state_sectors"),
                        (coupling, "_check_gathered"),
                        (coupling, "ORTHONORMAL_TOL"),
                        (zeeman, "_check_gathered"),
                        (zeeman, "_unit"),
                 (zeeman, "_rotate_groups")):
        assert not hasattr(owner, name), name


def test_test_side_helpers_left_the_library():
    # a basis is its own tuple of states; a state's spins, a report's
    # states by label and a curve by label are read off their fields
    for owner, name in ((BasisTransform, "states"),
                        (CoupledState, "intermediate_spins"),
                        (ZeemanReport, "by_label"),
                        (LevelCurves, "curve")):
        assert not hasattr(owner, name), name


# each basis function, given a candidate basis and a whole one
BASIS_FUNCTIONS = {
    "m_sector": lambda states, _basis: m_sector(states, 0.0),
    "full_transform": lambda states, _basis: full_transform(states),
    "scheme_overlap-a": lambda states, basis: scheme_overlap(states, basis),
    "scheme_overlap-b": lambda states, basis: scheme_overlap(basis, states),
    "classify_exchange": lambda states, _basis: classify_exchange(
        states, [(0, 2)]),
}


@pytest.mark.parametrize("function", sorted(BASIS_FUNCTIONS))
def test_basis_functions_take_only_what_couple_returns(function):
    system = SpinSystem.dipositronium()
    basis = couple(system, CouplingTree.like_pairs(system))
    call = BASIS_FUNCTIONS[function]
    call(basis, basis)
    # a list, a slice, a reversal and a concatenation hold the same states
    for states in (list(basis), basis[:], basis[::-1], basis[:8] + basis[8:]):
        with pytest.raises(TypeError, match=(
                r"^expected a basis built by couple\(\), got a "
                f"{type(states).__name__}$")):
            call(states, basis)
    # an M sector is a transform too, but not a whole basis
    with pytest.raises(TypeError, match=(
            r"^expected a basis built by couple\(\), got an M sector$")):
        call(m_sector(basis, 0.0), basis)


def _like_pairs_basis_and_sector():
    system = SpinSystem.dipositronium()
    basis = couple(system, CouplingTree.like_pairs(system))
    return basis, m_sector(basis, 1.0)


def test_a_basis_is_its_own_full_transform():
    basis, sector = _like_pairs_basis_and_sector()
    assert type(basis) is type(sector) is BasisTransform
    assert full_transform(basis) is basis
    # moment_matrix takes couple's output as it is
    assert (moment_matrix(basis).entries.tobytes()
            == moment_matrix(full_transform(basis)).entries.tobytes())


@pytest.mark.parametrize("name", ["system", "columns", "row_labels",
                                  "_sectors", "_flips", "other"])
def test_a_basis_and_a_sector_refuse_any_attribute(name):
    for transform in _like_pairs_basis_and_sector():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(transform, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(transform, name)
        assert transform.system == SpinSystem.dipositronium()


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda transform: pickle.loads(pickle.dumps(transform))])
def test_a_basis_and_a_sector_survive_a_copy(clone):
    for transform in _like_pairs_basis_and_sector():
        twin = clone(transform)
        assert type(twin) is BasisTransform and twin is not transform
        assert twin.row_labels == transform.row_labels
        assert twin.columns.tobytes() == transform.columns.tobytes()
        assert list(twin._sectors) == list(transform._sectors)
        for m, (rows, cols, block) in transform._sectors.items():
            rows_t, cols_t, block_t = twin._sectors[m]
            assert np.array_equal(rows_t, rows)
            assert np.array_equal(cols_t, cols)
            assert block_t.tobytes() == block.tobytes()
        assert twin.matrix.tobytes() == transform.matrix.tobytes()
        assert [s.label for s in twin] == list(transform.row_labels)
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.columns = None
