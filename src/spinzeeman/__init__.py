"""Coupled spin bases and Zeeman-effect analysis for electron-positron systems.

The package couples small products of spin-1/2 particles carrying signed
magnetic moments into labeled total-spin bases along user-chosen binary
trees, builds the magnetic-moment matrix in those bases, and classifies the
Zeeman response of every state (linear, quadratic, or none) both
perturbatively and through exact level curves.
"""

from .cg import cg_coefficient
from .coupling import (
    BasisTransform,
    CoupledState,
    CouplingTree,
    classify_exchange,
    couple,
    full_transform,
    m_sector,
    scheme_overlap,
)
from .system import (
    MAX_PARTICLES,
    Species,
    SpinSystem,
    species_from_name,
)
from .zeeman import (
    Classification,
    DegeneracySpec,
    LevelCurves,
    MomentMatrix,
    StateReport,
    ZeemanReport,
    classify,
    level_curves,
    moment_matrix,
    quadratic_coefficients,
)

__version__ = "0.1.0"

__all__ = [
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
    "full_transform",
    "level_curves",
    "m_sector",
    "moment_matrix",
    "quadratic_coefficients",
    "scheme_overlap",
    "species_from_name",
    "__version__",
]
