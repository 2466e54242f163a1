"""The package's public names.

The dense complex operators are test-side oracles (``dense_operators``), not
part of the library, and the product basis is a bit table, not per-ket
objects.
"""

import importlib

import pytest

import spinzeeman
from spinzeeman import coupling

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
