"""Command-line scenario runner.

Subcommands build a preset or user-defined system, couple it along a scheme,
and emit basis transforms, moment matrices, Zeeman classifications, level
sweeps, exchange symmetries, and scheme overlaps as aligned tables, JSON, or
CSV.  Output is deterministic: floats are fixed to 12 significant digits and
negative zero is normalized.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import re
import sys

import numpy as np

from .coupling import (
    BasisTransform,
    CouplingTree,
    classify_exchange,
    couple,
    format_spin,
    full_transform,
    like_species_pairs,
    m_sector,
    scheme_overlap,
)
from .system import SpinSystem, species_from_name
from .zeeman import DegeneracySpec, classify, level_curves, moment_matrix


def fmt(value: float) -> str:
    """12-significant-digit float formatting with -0 normalized to 0."""
    text = f"{value:.12g}"
    return "0" if text == "-0" else text


def _rounded(value: float) -> float:
    return float(fmt(value))


# ---------------------------------------------------------------------------
# scenario construction


_PRESET_SYSTEMS = ("dipositronium", "positronium")


def _build_system(text: str, mu0: float) -> SpinSystem:
    name = text.strip().lower()
    if name == "dipositronium":
        return SpinSystem.dipositronium(mu0)
    if name == "positronium":
        return SpinSystem.positronium(mu0)
    if "," in text:
        species = [species_from_name(tok) for tok in text.split(",")]
        return SpinSystem(species, mu0)
    raise ValueError(
        f"unknown system {text!r}; use one of {', '.join(_PRESET_SYSTEMS)} "
        "or a comma-separated species list such as 'e,p,e,p'"
    )


def _build_tree(scheme: "str | None", system: SpinSystem) -> CouplingTree:
    if scheme is None:
        scheme = "positronium-pairs" if system.n == 2 else "like-pairs"
    name = scheme.strip().lower()
    if name == "like-pairs":
        return CouplingTree.like_pairs(system)
    if name == "positronium-pairs":
        return CouplingTree.positronium_pairs(system)
    if scheme.strip().startswith("("):
        return CouplingTree.parse(scheme, system)
    raise ValueError(
        f"unknown scheme {scheme!r}; use 'like-pairs', 'positronium-pairs', "
        "or a tree expression such as '((e1,e2),(p1,p2))'"
    )


def _basis(args, scheme: "str | None" = None) -> BasisTransform:
    """Build the system and couple it along ``scheme`` (default ``--scheme``)."""
    system = _build_system(args.system, args.mu0)
    tree = _build_tree(args.scheme if scheme is None else scheme, system)
    return couple(system, tree)


def _block(args) -> BasisTransform:
    """The ``--m`` sector of the coupled basis, or all of it without ``--m``.

    An ``--m`` that no state of the system has is a domain error.
    """
    basis = _basis(args)
    if args.m is None:
        return full_transform(basis)
    block = m_sector(basis, args.m)
    if not block.states:
        raise ValueError(
            f"no states with M={format_spin(args.m)} for "
            f"{basis.system.n} particles"
        )
    return block


def parse_energies(path: str, states) -> DegeneracySpec:
    """Read a 'label,energy' file into a degeneracy spec.

    A leading byte-order mark, blank lines and lines starting with '#' are
    skipped.  The label is everything before the last comma (labels
    themselves contain commas).  Unlisted states form one zero-energy group.
    """
    known = set(states.row_labels)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read energies file {path}: {exc}") from None
    seen: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, value = line.rpartition(",")
        label = label.strip()
        if not sep or not label:
            raise ValueError(f"{path}:{lineno}: expected 'label,energy'")
        if label not in known:
            raise ValueError(
                f"{path}:{lineno}: unknown state label {label!r}; labels must "
                "match the rendered kets exactly"
            )
        if label in seen:
            raise ValueError(f"{path}:{lineno}: duplicate label {label!r}")
        try:
            energy = float(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-numeric energy {value.strip()!r}"
            ) from None
        if not np.isfinite(energy):
            raise ValueError(f"{path}:{lineno}: energy must be finite")
        seen[label] = energy
    return DegeneracySpec.from_energy_map(states.row_labels, seen)


def _parse_m(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid spin projection {text!r}; use forms like 1, -2, 1/2"
        ) from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"spin projection must be finite, got {text!r}")
    if not np.isfinite(2 * value):
        raise argparse.ArgumentTypeError(
            f"spin projection out of range, got {text!r}")
    if abs(2 * value - round(2 * value)) > 1e-9:
        raise argparse.ArgumentTypeError(
            f"spin projection must be an integer or half-integer, got {text!r}"
        )
    return round(2 * value) / 2.0


# ---------------------------------------------------------------------------
# rendering


def _table(headers: "list[str]", rows: "list[list[str]]") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    for cells in [headers] + rows:
        padded = [cells[0].ljust(widths[0])]
        padded += [cells[k].rjust(widths[k]) for k in range(1, len(cells))]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _json_dump(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _csv_dump(rows: "list[list[str]]") -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(fmt_name: str, headers: "list[str]", rows, payload) -> str:
    """JSON of ``payload()``, or ``headers`` over ``rows()`` as CSV or an
    aligned table; only the requested form is built."""
    if fmt_name == "json":
        return _json_dump(payload())
    if fmt_name == "csv":
        return _csv_dump([headers] + rows())
    return _table(headers, rows())


def _matrix_output(row_labels, col_labels, entries: np.ndarray,
                   fmt_name: str) -> str:
    """A real matrix; JSON writes each entry as a [real, imaginary] pair."""
    entries = entries.tolist()
    return _emit(
        fmt_name,
        ["state"] + list(col_labels),
        lambda: [
            [label] + [fmt(x) for x in row]
            for label, row in zip(row_labels, entries)
        ],
        lambda: {
            "rows": list(row_labels),
            "cols": list(col_labels),
            "entries": [[[_rounded(x), 0.0] for x in row] for row in entries],
        },
    )


# ---------------------------------------------------------------------------
# commands


def _cmd_basis(args) -> str:
    block = _block(args)
    return _matrix_output(
        block.row_labels, block.column_labels, block.matrix, args.format
    )


def _cmd_moment(args) -> str:
    matrix = moment_matrix(_block(args))
    return _matrix_output(matrix.labels, matrix.labels, matrix.entries, args.format)


def _degeneracy(args, states) -> DegeneracySpec:
    if args.energies:
        return parse_energies(args.energies, states)
    return DegeneracySpec.isolated(len(states))


def _cmd_classify(args) -> str:
    block = _block(args)
    spec = _degeneracy(args, block.states)
    report = classify(moment_matrix(block), spec)
    return _emit(
        args.format,
        ["state", "class", "slope", "moment", "partners"],
        lambda: [
            [
                s.label,
                s.classification.value,
                fmt(s.linear_slope),
                fmt(s.moment),
                " ".join(s.quadratic_partners),
            ]
            for s in report.states
        ],
        lambda: {
            "states": [
                {
                    "label": s.label,
                    "classification": s.classification.value,
                    "moment": _rounded(s.moment),
                    "linear_slope": _rounded(s.linear_slope),
                    "quadratic_partners": list(s.quadratic_partners),
                }
                for s in report.states
            ]
        },
    )


def _cmd_sweep(args) -> str:
    block = _block(args)
    spec = _degeneracy(args, block.states)
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    if args.steps == 1 and args.bmin != args.bmax:
        raise ValueError(
            "one step samples only --bmin; give --bmax equal to --bmin or "
            "at least 2 steps"
        )
    # non-finite ends or span give non-finite steps, which level_curves rejects
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(args.bmin, args.bmax, args.steps)
    curves = level_curves(moment_matrix(block), spec, grid)
    order = sorted(range(len(curves.labels)), key=lambda k: curves.labels[k])
    return _emit(
        args.format,
        ["B", "label", "energy"],
        lambda: [
            [fmt(b), curves.labels[k], fmt(curves.energies[i, k])]
            for i, b in enumerate(curves.b_values)
            for k in order
        ],
        lambda: {
            "B": [_rounded(b) for b in curves.b_values],
            "curves": [
                {
                    "label": label,
                    "energies": [
                        _rounded(e) for e in curves.energies[:, k]
                    ],
                }
                for k, label in enumerate(curves.labels)
            ],
            "flagged": [[_rounded(b), label] for b, label in curves.flagged],
        },
    )


def _cmd_exchange(args) -> str:
    basis = _basis(args)
    pairs = like_species_pairs(basis.system)
    names = basis.system.names
    pair_labels = [f"{names[i]}<->{names[j]}" for i, j in pairs]
    values = classify_exchange(basis, pairs)
    return _emit(
        args.format,
        ["state"] + pair_labels,
        lambda: [
            [s.label] + [str(v) for v in row]
            for s, row in zip(basis, values)
        ],
        lambda: {
            "pairs": pair_labels,
            "states": [
                {"label": s.label, "eigenvalues": row}
                for s, row in zip(basis, values)
            ],
        },
    )


def _cmd_overlap(args) -> str:
    basis_a = _basis(args)
    basis_b = _basis(args, args.scheme2)
    overlap = scheme_overlap(basis_a, basis_b)
    return _matrix_output(basis_a.row_labels, basis_b.row_labels, overlap,
                          args.format)


_COMMANDS = {
    "basis": _cmd_basis,
    "moment": _cmd_moment,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "exchange": _cmd_exchange,
    "overlap": _cmd_overlap,
}


def _add_common(parser: argparse.ArgumentParser, sector: bool = True,
                energies: bool = False) -> None:
    parser.add_argument("--system", default="dipositronium",
                        help="preset name or species list such as 'e,p,e,p'")
    parser.add_argument("--scheme", default=None,
                        help="'like-pairs', 'positronium-pairs', or a tree "
                             "expression like '((e1,e2),(p1,p2))'")
    parser.add_argument("--mu0", type=float, default=1.0,
                        help="magnetic-moment unit (default 1)")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    if sector:
        parser.add_argument("--m", type=_parse_m, default=None,
                            help="restrict to one spin-projection sector")
    if energies:
        parser.add_argument("--energies", default=None,
                            help="path to a 'label,energy' file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinzeeman",
        description="Coupled spin bases and Zeeman analysis for "
                    "electron-positron systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="basis-transform block")
    _add_common(p)

    p = sub.add_parser("moment", help="magnetic-moment matrix")
    _add_common(p)

    p = sub.add_parser("classify", help="Zeeman classification per state")
    _add_common(p, energies=True)

    p = sub.add_parser("sweep", help="exact level curves over a field grid")
    _add_common(p, energies=True)
    p.add_argument("--bmin", type=float, required=True)
    p.add_argument("--bmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("exchange", help="exchange symmetry per state")
    _add_common(p, sector=False)

    p = sub.add_parser("overlap", help="overlap between two coupling schemes")
    _add_common(p, sector=False)
    p.add_argument("--scheme2", required=True,
                   help="second scheme for the overlap")

    return parser


# Options whose value may be negative in any numeric form.  No other option
# begins with --mu, --bmi or --bma, so an abbreviation that names only one
# of these is one that argparse resolves to it.
_SIGNED_OPTIONS = ("--mu0", "--bmin", "--bmax", "--m")
# a negative number in any form ``float`` reads, -inf and -nan included
_NEGATIVE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


def _signed(flag: str) -> bool:
    """Whether ``flag`` names a signed option, in full or abbreviated."""
    if flag in _SIGNED_OPTIONS:
        return True
    named = [option for option in _SIGNED_OPTIONS if option.startswith(flag)]
    return len(flag) > 2 and len(named) == 1


def _attach_negative_values(argv: "list[str]") -> "list[str]":
    """Rewrite ``--mu0 -9.274e-24`` as ``--mu0=-9.274e-24``.

    argparse takes a spaced value that starts with '-' for an option flag
    unless it looks like ``-1`` or ``-0.5``, so scientific, fraction and
    infinite forms such as ``-1e-3``, ``-1/2`` and ``-inf`` would be usage
    errors.  An abbreviated flag such as ``--mu`` is rewritten too.
    """
    out: "list[str]" = []
    for token in argv:
        if out and _signed(out[-1]) and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        output = _COMMANDS[args.command](args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        buffer.write(output.encode("utf-8"))
        buffer.flush()
    else:
        sys.stdout.write(output)
    return 0


def run() -> None:
    """Entry of ``python -m spinzeeman`` and the ``spinzeeman`` script:
    ``main()``, then ``gc.freeze()`` so that the collections at exit skip
    every live object; unlike ``os._exit``, atexit and the final flush run."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)
