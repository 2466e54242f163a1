"""Record perfbench/reference.json from the current sources.

Writes the census every site order must reproduce and the exit code and
stdout digest of every CLI task.  The recording passes the same
closed-form and golden checks the benchmark applies, and is refused if any
fails.  The known-defect task is not recorded: its check is the
unit-invariant census, not a digest.

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from spinzeeman import SpinSystem  # noqa: E402


def main() -> int:
    species = workloads.species_order(workloads.CENSUS_N, 0)
    system = SpinSystem.from_species(species)
    census = {}
    partner = None
    for name, tree in workloads.matching_trees(species).items():
        result = workloads.census_task(system, tree, partner)
        partner = result.states
        errors = oracles.census_errors(name, result, species, system.mu0, None)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        census[name] = oracles.census_reference(result)

    energies = ROOT / "perfbench" / "out" / "positronium_energies.csv"
    workloads.write_energies(energies)
    runner = workloads.CliRunner(ROOT)
    cli = {}
    species = workloads.species_order(workloads.CLI_SPECIES_N, 0)
    for task in workloads.cli_tasks(species, runner, str(energies)):
        if task.known_defect:
            continue
        out = task.run()
        errors = task.check(out)
        if errors:
            print(f"{task.name}: {'; '.join(errors)}", file=sys.stderr)
            return 1
        cli[task.name] = {"exit": out.code,
                          "sha256": oracles.stdout_digest(out.stdout)}

    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps({"census": census, "cli": cli}, indent=1,
                               ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
