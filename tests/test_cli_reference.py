"""Every CLI run of the benchmark against its recorded exit code and stdout
digest in ``perfbench/reference.json``.

The runs are the benchmark's own argument lists (``workloads.cli_argvs``),
made in-process.  The one run without a digest, the SI-unit census, is held
to its unit-invariant 4/7/5 count instead.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads(
    (PERFBENCH / "reference.json").read_text(encoding="utf-8"))["cli"]
# the mixed-species runs print nothing that depends on the site order
ARGVS = workloads.cli_argvs(workloads.species_order(workloads.CLI_SPECIES_N, 0),
                            "energies.csv")


def test_every_run_but_the_si_census_has_a_digest():
    names = [name for name, _argv in ARGVS]
    assert len(names) == 19
    assert set(names) - set(REFERENCE) == {workloads.SI_TASK}
    assert set(REFERENCE) <= set(names)


@pytest.mark.parametrize("name, argv", ARGVS, ids=[name for name, _ in ARGVS])
def test_cli_run_matches_its_reference(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.write_energies(tmp_path / "energies.csv")
    out = workloads.CliRunner(tmp_path, in_process=True)(argv)
    if name == workloads.SI_TASK:
        assert oracles.si_census_errors(out) == []
        return
    expected = REFERENCE[name]
    assert out.code == expected["exit"], out.stderr.decode(errors="replace")
    assert oracles.stdout_digest(out.stdout) == expected["sha256"]
