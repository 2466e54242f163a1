"""The package's public names.

The dense complex operators are test-side oracles (``dense_operators``), not
part of the library, the product basis is a bit table, not per-ket
objects, and a coupled basis is given as per-M blocks, never as a dense
vector or matrix.
"""

import importlib

import numpy as np
import pytest

import spinzeeman
from spinzeeman import (
    BasisTransform,
    CoupledState,
    CouplingTree,
    MomentMatrix,
    SpinSystem,
    couple,
    full_transform,
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
    "ParticleSpec",
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
    "moment_diagonal",
    "moment_matrix",
    "quadratic_coefficients",
    "scheme_overlap",
    "species_from_name",
    "__version__",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) <= 28
    assert spinzeeman.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(spinzeeman, name), name


def test_dense_operators_left_the_library():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("spinzeeman.operators")
    for name in ("ProductState", "Operator", "exchange_operator",
                 "product_states_with_m"):
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
    states = couple(system, CouplingTree.positronium_pairs(system))
    full = full_transform(states)
    with pytest.raises(ValueError):
        BasisTransform(full.states, full.columns, full.matrix, system)
