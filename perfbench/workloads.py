"""Seeded inputs and task lists of the benchmark workloads.

Each workload is a closed loop: one client runs its task list in order, in
one process, and a pass is one run over that list.  The seed only shuffles
the electron/positron site order (and so picks the matching coupling trees);
it never changes the amount of work.

Library functions are called as attributes of their modules
(``coupling.couple``), so the traced run can wrap them where they are looked
up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spinzeeman import coupling, zeeman
from spinzeeman.system import Species, SpinSystem

import oracles

CENSUS_N = 10
SWEEP_N = 8
# Symmetric, with an exact 0.0 at index 10 (level_curves needs one).
SWEEP_GRID = np.linspace(-1.0, 1.0, 21)
CLI_SPECIES_N = 6
# Per-species names, so the tree is the same coupling for every site order.
CLI_SPECIES_TREE = "((e1,p1),((e2,e3),(p2,p3)))"
SI_TASK = "like-classify-si"
SI_MU0 = "9.274e-24"


@dataclass
class Task:
    """One unit of timed work: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], "list[str]"]
    # Set when the check is known to fail at the recorded commit; the task is
    # still run, checked and counted as failed while the defect lasts.
    known_defect: "str | None" = None


def species_order(n: int, seed: int) -> "list[Species]":
    """n/2 electrons and n/2 positrons in a seed-shuffled site order."""
    order = [Species.ELECTRON, Species.POSITRON] * (n // 2)
    return [order[k] for k in np.random.default_rng(seed).permutation(n)]


def _chain(nodes: list):
    node = nodes[0]
    for nxt in nodes[1:]:
        node = (node, nxt)
    return node


def matching_trees(species) -> "dict[str, coupling.CouplingTree]":
    """The two census trees for a site order.

    ``atom``: each electron coupled with a positron, then the atoms chained.
    ``ep``: the electrons chained, the positrons chained, then both coupled.
    """
    electrons = [k for k, s in enumerate(species) if s is Species.ELECTRON]
    positrons = [k for k, s in enumerate(species) if s is Species.POSITRON]
    return {
        "atom": coupling.CouplingTree.from_nested(
            _chain(list(zip(electrons, positrons)))),
        "ep": coupling.CouplingTree.from_nested(
            (_chain(electrons), _chain(positrons))),
    }


def spin_grouped(states) -> zeeman.DegeneracySpec:
    """E = S(S+1): one degenerate group per total spin."""
    groups: dict[float, list[int]] = {}
    for k, state in enumerate(states):
        groups.setdefault(state.total_s, []).append(k)
    return zeeman.DegeneracySpec(
        tuple(tuple(g) for g in groups.values()),
        tuple(s * (s + 1) for s in groups),
    )


# ---------------------------------------------------------------------------
# census


@dataclass
class CensusResult:
    states: list
    moments: zeeman.MomentMatrix
    isolated: zeeman.ZeemanReport
    grouped: zeeman.ZeemanReport
    quadratic: np.ndarray
    overlap: "np.ndarray | None"


def census_task(system: SpinSystem, tree, partner=None) -> CensusResult:
    """couple -> full_transform -> scheme_overlap -> moment_matrix -> classify.

    ``classify`` runs under the isolated and the spin-grouped spec, and
    ``quadratic_coefficients`` under the grouped one.  ``partner`` is the
    other tree's basis for ``scheme_overlap``.
    """
    states = coupling.couple(system, tree)
    basis = coupling.full_transform(states)
    overlap = (None if partner is None
               else coupling.scheme_overlap(partner, states))
    moments = zeeman.moment_matrix(basis)
    spec = spin_grouped(states)
    isolated = zeeman.classify(
        moments, zeeman.DegeneracySpec.isolated(len(states)))
    grouped = zeeman.classify(moments, spec)
    quadratic = zeeman.quadratic_coefficients(moments, spec)
    return CensusResult(states, moments, isolated, grouped, quadratic, overlap)


def census_tasks(species, reference=None) -> "list[Task]":
    """One task per tree; the second also overlaps the two bases."""
    system = SpinSystem.from_species(species)
    trees = matching_trees(species)
    last: dict[str, list] = {}

    def atom():
        result = census_task(system, trees["atom"])
        last["atom"] = result.states
        return result

    def ep():
        return census_task(system, trees["ep"], partner=last.pop("atom"))

    def check(name):
        return lambda result: oracles.census_errors(
            name, result, species, system.mu0,
            None if reference is None else reference[name])

    return [Task("census:atom", atom, check("atom")),
            Task("census:ep", ep, check("ep"))]


# ---------------------------------------------------------------------------
# sweep


def sweep_task(system: SpinSystem, tree, grid) -> zeeman.LevelCurves:
    states = coupling.couple(system, tree)
    moments = zeeman.moment_matrix(coupling.full_transform(states))
    return zeeman.level_curves(moments, spin_grouped(states), grid)


def sweep_tasks(species, grid=SWEEP_GRID) -> "list[Task]":
    system = SpinSystem.from_species(species)
    spectrum = oracles.ProductSpectrum(species, system.mu0)
    return [
        Task(f"sweep:{name}",
             lambda tree=tree: sweep_task(system, tree, grid),
             lambda curves: spectrum.sweep_errors(curves, grid))
        for name, tree in matching_trees(species).items()
    ]


# ---------------------------------------------------------------------------
# cli


def cli_argvs(species, energies_path: str) -> "list[tuple[str, list[str]]]":
    """Each subcommand once in each format, spread over four systems.

    Positronium, dipositronium in both schemes, and a seed-ordered
    three-electron, three-positron species list.  The species-list runs use
    only subcommands whose output does not depend on the site order:
    ``basis`` prints product kets, and ``sweep``/``overlap`` print
    near-zero noise or degenerate curve labels that change with it.
    """
    pos = ["--system", "positronium"]
    like = ["--system", "dipositronium", "--scheme", "like-pairs"]
    pairs = ["--system", "dipositronium", "--scheme", "positronium-pairs"]
    mixed = ["--system", ",".join(s.code for s in species),
             "--scheme", CLI_SPECIES_TREE]
    grid = ["--bmin", "-1", "--bmax", "1"]
    return [
        ("pos-basis-json", ["basis", *pos, "--format", "json"]),
        ("pos-moment-csv", ["moment", *pos, "--format", "csv"]),
        ("pos-sweep-json", ["sweep", *pos, "--energies", energies_path,
                            *grid, "--steps", "21", "--format", "json"]),
        ("pos-exchange-csv", ["exchange", *pos, "--format", "csv"]),
        ("pos-overlap-table", ["overlap", *pos, "--scheme",
                               "positronium-pairs", "--scheme2", "(p1,e1)"]),
        ("like-basis-m1-table", ["basis", *like, "--m", "1",
                                 "--format", "table"]),
        ("like-classify-table", ["classify", *like]),
        ("like-sweep-csv", ["sweep", *like, *grid, "--steps", "11",
                            "--format", "csv"]),
        ("like-exchange-table", ["exchange", *like]),
        ("like-overlap-json", ["overlap", *like, "--scheme2",
                               "positronium-pairs", "--format", "json"]),
        ("pairs-moment-m1-table", ["moment", *pairs, "--m", "1"]),
        ("pairs-basis-m0-csv", ["basis", *pairs, "--m", "0",
                                "--format", "csv"]),
        ("pairs-classify-json", ["classify", *pairs, "--format", "json"]),
        ("pairs-sweep-table", ["sweep", *pairs, "--bmin", "-0.5",
                               "--bmax", "0.5", "--steps", "5"]),
        ("pairs-overlap-csv", ["overlap", *pairs, "--scheme2", "like-pairs",
                               "--format", "csv"]),
        ("mixed-classify-csv", ["classify", *mixed, "--format", "csv"]),
        ("mixed-exchange-json", ["exchange", *mixed, "--format", "json"]),
        ("mixed-moment-m1-json", ["moment", *mixed, "--m", "1",
                                  "--format", "json"]),
        (SI_TASK, ["classify", *like, "--mu0", SI_MU0]),
    ]


# The golden snapshots of the test suite, by the CLI task that reproduces them.
GOLDEN_FILES = {
    "like-basis-m1-table": "basis_like_m1.txt",
    "pairs-moment-m1-table": "moment_pospairs_m1.txt",
    "like-classify-table": "classify_like.txt",
}
SI_DEFECT = ("absolute zero tolerances classify every state NONE when mu0 "
             "is given in SI units")


def write_energies(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("# singlet one unit below the triplet\n|0,0⟩,-1.0\n",
                    encoding="utf-8")


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    stderr: bytes


class CliRunner:
    """Runs ``python -m spinzeeman`` in a child, or ``main()`` in-process."""

    def __init__(self, root: Path, in_process: bool = False):
        self.root = root
        self.in_process = in_process
        self.child_peak_kb = 0

    def __call__(self, argv: "list[str]") -> CliOutput:
        if self.in_process:
            return self._in_process(argv)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinzeeman", *argv], cwd=self.root,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        # wait4 reaps the child and returns its own peak RSS.
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return CliOutput(proc.returncode, stdout, stderr)

    @staticmethod
    def _in_process(argv: "list[str]") -> CliOutput:
        from spinzeeman import cli

        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        out.flush()
        return CliOutput(code, out.buffer.getvalue(), err.getvalue().encode())


def cli_tasks(species, runner: CliRunner, energies_path: str,
              reference: "dict | None" = None) -> "list[Task]":
    golden_dir = runner.root / "tests" / "golden"
    tasks = []
    for name, argv in cli_argvs(species, energies_path):
        if name == SI_TASK:
            tasks.append(Task(name, lambda argv=argv: runner(argv),
                              oracles.si_census_errors,
                              known_defect=SI_DEFECT))
            continue
        golden = GOLDEN_FILES.get(name)
        expected = None if reference is None else reference[name]
        tasks.append(Task(
            name, lambda argv=argv: runner(argv),
            lambda out, expected=expected, golden=golden: oracles.cli_errors(
                out, expected, golden and golden_dir / golden)))
    return tasks


def build(workload: str, seed: int, root: Path, in_process: bool = False):
    """The workload's task list and, for ``cli``, its runner."""
    reference = json.loads(
        (root / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    if workload == "census":
        return census_tasks(species_order(CENSUS_N, seed),
                            reference["census"]), None
    if workload == "sweep":
        return sweep_tasks(species_order(SWEEP_N, seed)), None
    energies = root / "perfbench" / "out" / "positronium_energies.csv"
    write_energies(energies)
    runner = CliRunner(root, in_process)
    return cli_tasks(species_order(CLI_SPECIES_N, seed), runner,
                     str(energies), reference["cli"]), runner
