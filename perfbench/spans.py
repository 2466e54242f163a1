"""In-memory spans around the library's public functions.

The traced run replaces each function by a wrapper in the module where its
callers look it up (``spinzeeman.coupling.cg_coefficient``,
``numpy.linalg.eigh``, ...).  A wrapper records one span per call
(name, start, end, parent, task) and updates counters from the call's
arguments and result.  Nothing inside the library is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _count_states(counters, _args, states):
    counters["coupling.states"] += len(states)
    size = sum(s.vector.nbytes for s in states)
    counters["coupling.basis_bytes"] = max(counters["coupling.basis_bytes"], size)


def _moment_bytes(counters, _args, matrix):
    counters["zeeman.moment_bytes"] = max(counters["zeeman.moment_bytes"],
                                          matrix.entries.nbytes)


def _eigh_dim(counters, args, _result):
    counters["zeeman.eigh.dim_max"] = max(counters["zeeman.eigh.dim_max"],
                                          len(args[0]))


def _flagged(counters, _args, curves):
    counters["zeeman.flagged"] += len(curves.flagged)


_BOTH = ("spinzeeman.coupling", "spinzeeman.cli")
_ZEEMAN_AND_CLI = ("spinzeeman.zeeman", "spinzeeman.cli")

# span name, attribute, modules where callers look it up, observer
TARGETS = (
    ("system.product_states_with_m", "product_states_with_m",
     ("spinzeeman.coupling",), None),
    ("cg.cg_coefficient", "cg_coefficient", ("spinzeeman.coupling",), None),
    ("coupling.couple", "couple", _BOTH, _count_states),
    ("coupling.full_transform", "full_transform", _BOTH, None),
    ("coupling.m_sector", "m_sector", _BOTH, None),
    ("coupling.scheme_overlap", "scheme_overlap", _BOTH, None),
    ("coupling.classify_exchange", "classify_exchange", _BOTH, None),
    ("zeeman.moment_matrix", "moment_matrix", _ZEEMAN_AND_CLI, _moment_bytes),
    ("zeeman.classify", "classify", _ZEEMAN_AND_CLI, None),
    ("zeeman.quadratic_coefficients", "quadratic_coefficients",
     ("spinzeeman.zeeman",), None),
    ("zeeman.level_curves", "level_curves", _ZEEMAN_AND_CLI, _flagged),
    ("zeeman.eigh", "eigh", ("numpy.linalg",), _eigh_dim),
    ("zeeman.assignment", "linear_sum_assignment", ("spinzeeman.zeeman",),
     None),
    ("cli.main", "main", ("spinzeeman.cli",), None),
)

TIMED = tuple(name for name, *_ in TARGETS)
CALL_COUNTS = ("system.product_states_with_m", "cg.cg_coefficient",
               "zeeman.eigh", "zeeman.assignment")
# metric name -> span whose self time (duration minus traced children) it
# reports: classify's partner scan and group rotation products, the tie scan
# of level_curves, and the CLI's parsing and rendering.
SELF_TIMES = {
    "zeeman.classify.self_s": "zeeman.classify",
    "zeeman.level_curves.self_s": "zeeman.level_curves",
    "cli.render.self_s": "cli.main",
}
COUNTERS = ("coupling.states", "coupling.basis_bytes", "zeeman.moment_bytes",
            "zeeman.eigh.dim_max", "zeeman.flagged")


class Tracer:
    """Keeps spans and per-pass counters in memory until ``write``."""

    def __init__(self):
        # [name, start, end, parent index, task index]; parent -1 is a root.
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._task = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        if parent == -1:
            self._task = index
        record = [name, perf_counter(), 0.0, parent, self._task]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where it is looked up; restore on exit."""
        patched = []
        try:
            for name, attr, modules, observe in TARGETS:
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    patched.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def layer_metrics(self, first: int) -> "dict[str, float]":
        """Per-layer totals over the spans recorded since index ``first``,
        plus the counters, which the caller resets per pass."""
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _name, start, end, parent, _task in spans:
            if parent >= first:
                child_time[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, _parent, _task) in enumerate(spans, first):
            total[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
        metrics = {f"{name}_s": total[name] for name in TIMED}
        metrics.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        metrics.update({key: own[name] for key, name in SELF_TIMES.items()})
        metrics.update({name: self.counters[name] for name in COUNTERS})
        return metrics

    def write(self, path: Path) -> None:
        """One tab-separated line per span, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\ttask\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent, task) in enumerate(self.spans):
                handle.write(f"{index}\t{parent}\t{task}\t{name}\t"
                             f"{start - origin:.9f}\t{end - origin:.9f}\n")
