"""Smoke test of ``tools/stage_times.py``, the script that prints the
median time of each census stage and its tracemalloc peak per N and tree."""

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def test_stage_times_prints_one_row_per_size_and_tree(monkeypatch, capsys):
    # the tool sets these on import; monkeypatch restores them afterwards
    for var in BLAS_VARIABLES:
        monkeypatch.setenv(var, "2")
    # the tool imports its trees and specs from tools/fingerprint.py
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    assert {os.environ[var] for var in BLAS_VARIABLES} == {"1"}
    monkeypatch.setattr(stage_times, "SIZES", range(2, 5))
    monkeypatch.setattr(stage_times, "REPEATS", 1)
    stage_times.main()
    header, *rows = capsys.readouterr().out.splitlines()
    columns = header.split()
    assert columns == ["n", "tree",
                       *(f"{stage}_ms" for stage in stage_times.STAGES),
                       "census_peak_mb", "lc_peak_mb"]
    assert [row.split()[:2] for row in rows] == [
        [str(n), tree] for n in (2, 3, 4) for tree in ("atom", "ep")]
    for row in rows:
        values = [float(v) for v in row.split()[2:]]
        assert len(values) == len(columns) - 2
        assert all(v > 0.0 for v in values[:len(stage_times.STAGES)])
        assert all(v >= 0.0 for v in values[len(stage_times.STAGES):])
