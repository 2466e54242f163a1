"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="session")
def fingerprint():
    """``tools/fingerprint.py`` as a module.  It sets the BLAS thread
    variables on import; they are restored afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            patch.delenv(var, raising=False)
        spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module
