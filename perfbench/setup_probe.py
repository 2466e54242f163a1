"""One workload's set-up in a fresh interpreter: imports, then inputs.

run.py times this script from outside, several times per run:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), ROOT)
