"""spinzeeman benchmark: the census, sweep and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (one client, sequential, in one process):

* ``census``: N=10, both trees; couple, full_transform, scheme_overlap,
  moment_matrix, classify under two degeneracy specs, and
  quadratic_coefficients.  Exercises the dense moment/classify path.
* ``sweep``: N=8, both trees, exact level curves over a 21-point grid.
  Exercises one eigh, one assignment and the tie scan per grid point.
* ``cli``: 19 ``python -m spinzeeman`` runs, where import and per-call
  cost dominate.

A task is one tree's census, one tree's sweep or one CLI run; a pass is one
run over the workload's task list, repeated while another pass fits in
``--seconds``.  ``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median over passes of the summed task times of a pass;
* ``task_p50_s``: median task time;
* ``task_tail_s``: the highest order statistic with at least 10 task times
  above it (the note line states its rank and the sample count);
* ``peak_rss_mb``: peak RSS of this process, or of the largest CLI child;
* ``setup_s``: median over five fresh interpreters of importing the
  package and building the workload's inputs, outside the measured passes.

``--trace 1`` runs the first half of the time untraced and the second half
with the library's public functions wrapped (see ``spans.py``), and prints
per-pass medians of the per-layer metrics and ``trace.overhead_s``, the
traced minus the untraced median pass.

Every task's output is checked, outside the timed region.  A task whose
check fails counts in ``failed``; ``correct`` is false when any task other
than a declared known defect fails.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with the run environment, and the spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported.  One BLAS thread: on a small shared machine a
# second one competes with the interpreter thread, and it made pass times
# about three times more variable without making the census faster.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Cached bytecode, as an installed package has, whatever the caller's
# environment says; children inherit the setting.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("census", "sweep", "cli")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class TaskResult:
    name: str
    seconds: float
    errors: "list[str]"
    known_defect: "str | None"


@dataclass
class Pass:
    tasks: "list[TaskResult]"
    elapsed: float  # including the untimed output checks
    layers: "dict[str, float] | None" = None

    @property
    def wall(self) -> float:
        return sum(t.seconds for t in self.tasks)


def run_task(task, tracer=None) -> TaskResult:
    start = perf_counter()
    try:
        if tracer is None:
            output = task.run()
        else:
            with tracer.span(f"task:{task.name}"):
                output = task.run()
    except Exception as exc:  # a task that raises is a failed task
        return TaskResult(task.name, perf_counter() - start,
                          [f"raised {exc!r}"], task.known_defect)
    seconds = perf_counter() - start
    return TaskResult(task.name, seconds, task.check(output), task.known_defect)


def run_passes(tasks, seconds: float, tracer=None) -> "list[Pass]":
    """Whole passes, while another one still fits in ``seconds``."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counters.clear()
        results = [run_task(task, tracer) for task in tasks]
        layers = tracer.layer_metrics(first) if tracer else None
        passes.append(Pass(results, perf_counter() - pass_start, layers))
        typical = statistics.median(p.elapsed for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def tail(samples: "list[float]") -> "tuple[float, str]":
    """The highest order statistic with at least 10 samples above it, and a
    note naming its percentile rank.  With 10 samples or fewer there is no
    such statistic and the minimum is reported."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    rank = 100.0 * k / max(len(ordered) - 1, 1)
    return ordered[k], (f"p{rank:.0f} of {len(ordered)} tasks, "
                        f"{len(ordered) - 1 - k} above it")


def timed_children(argv: "list[str]", repeats: int) -> "list[float]":
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinzeeman" / "__init__.py").is_file():
        print(f"error: no spinzeeman sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    setup_times = [] if args.trace else timed_children(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         args.workload, str(args.seed)], SETUP_REPEATS)
    in_process = bool(args.trace) and args.workload == "cli"
    tasks, runner = workloads.build(args.workload, args.seed, ROOT, in_process)
    run_task(tasks[0])  # warm-up: lazy imports, BLAS threads, first touch

    notes = {}
    if args.trace:
        untraced = run_passes(tasks, args.seconds / 2)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_passes(tasks, args.seconds / 2, tracer)
        passes = untraced + traced
        # Counts and sizes repeat exactly from pass to pass; median_low keeps
        # them whole numbers.
        metrics = {key: (statistics.median if key.endswith("_s") else
                         statistics.median_low)(p.layers[key] for p in traced)
                   for key in traced[0].layers}
        metrics["cli.import_s"] = 0.0
        if args.workload == "cli":
            metrics["cli.import_s"] = statistics.median(timed_children(
                [sys.executable, "-c", "import spinzeeman.cli"],
                IMPORT_REPEATS))
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in untraced))
        notes["passes"] = f"{len(untraced)} untraced, {len(traced)} traced"
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        units = {key: "s" if key.endswith("_s") else
                 "bytes" if key.endswith("_bytes") else "count"
                 for key in metrics}
    else:
        passes = run_passes(tasks, args.seconds)
        samples = [t.seconds for p in passes for t in p.tasks]
        tail_value, notes["task_tail_s"] = tail(samples)
        if runner is not None:
            peak_kb = runner.child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "task_p50_s": statistics.median(samples),
            "task_tail_s": tail_value,
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": statistics.median(setup_times),
        }
        notes["passes"] = str(len(passes))
        units = END_TO_END_UNITS

    results = [t for p in passes for t in p.tasks]
    failed = [t for t in results if t.errors]
    known = sorted({t.name for t in failed if t.known_defect})
    correct = all(t.known_defect for t in failed)
    notes["failed_frac"] = f"{len(failed) / len(results):.4f}"
    env = environment(args)

    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    for key, value in notes.items():
        print(f"{args.workload} {key}: {value}")
    for name in sorted({t.name for t in failed}):
        first = next(t for t in failed if t.name == name)
        kind = "known defect" if first.known_defect else "FAILED"
        print(f"{kind}: {name}: {'; '.join(first.errors)}")
    print("env " + json.dumps(env))
    summary = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    record = dict(summary, env=env, notes=notes, known_defects=known,
                  setup_samples=setup_times,
                  pass_walls=[p.wall for p in passes],
                  tasks=[[t.name, t.seconds, t.errors] for t in results])
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
