"""Each demo script prints exactly its recorded output.

The demos print transforms, moment matrices, overlaps and level-curve
samples to fixed precision, so a change to the numerical core that moves a
printed digit shows up here.  Snapshots live in ``tests/golden/demos/``,
one ``<demo name>.txt`` per script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SNAPSHOTS = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_snapshot(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (SNAPSHOTS / f"{demo.stem}.txt").read_bytes()


def test_every_demo_has_a_snapshot():
    assert {p.stem for p in SNAPSHOTS.glob("*.txt")} == {d.stem for d in DEMOS}
