"""Smoke test of ``tools/fingerprint.py``, the script that compares two
trees of the library for bit-identical output."""

import importlib.util
import os
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
LINE = re.compile(r"n=(\d+) seed=(\d+) tree=(atom|ep) "
                  r"spec=(isolated|spin|shuffled|split) [0-9a-f]{64}")


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def test_fingerprint_prints_one_hash_per_case(monkeypatch, capsys):
    # the tool sets these on import; monkeypatch restores them afterwards
    for var in BLAS_VARIABLES:
        monkeypatch.setenv(var, "2")
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert {os.environ[var] for var in BLAS_VARIABLES} == {"1"}
    monkeypatch.setattr(fingerprint, "SIZES", range(2, 4))
    fingerprint.main()
    lines = capsys.readouterr().out.splitlines()
    cases = [LINE.fullmatch(line) for line in lines]
    assert all(cases), lines
    keys = [case.groups() for case in cases]
    assert len(set(keys)) == len(keys) == 2 * 3 * 2 * 4
    assert {int(n) for n, *_ in keys} == {2, 3}
    # the same cases print the same hashes on a second run
    fingerprint.main()
    assert capsys.readouterr().out.splitlines() == lines
