"""Command-line interface: golden snapshots, formats, errors, exit codes."""

import csv
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    couple,
    full_transform,
    level_curves,
    m_sector,
    moment_matrix,
)
from spinzeeman import cli
from spinzeeman.cli import fmt, main, parse_energies

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_snapshots_byte_identical():
    # the real entry point through a pipe, compared byte for byte
    cases = [
        (
            ("basis", "--system", "dipositronium", "--scheme", "like-pairs",
             "--m", "1", "--format", "table"),
            "basis_like_m1.txt",
        ),
        (
            ("moment", "--system", "dipositronium", "--scheme",
             "positronium-pairs", "--m", "1"),
            "moment_pospairs_m1.txt",
        ),
        (
            ("classify", "--system", "dipositronium", "--scheme", "like-pairs"),
            "classify_like.txt",
        ),
        # the curve labels come from level tracking's assignments
        (
            ("sweep", "--system", "dipositronium", "--scheme",
             "positronium-pairs", "--bmin", "-0.5", "--bmax", "0.5",
             "--steps", "5"),
            "sweep_pospairs.txt",
        ),
        (
            ("sweep", "--system", "dipositronium", "--scheme", "like-pairs",
             "--bmin", "-1", "--bmax", "1", "--steps", "11", "--format",
             "csv"),
            "sweep_like.csv",
        ),
    ]
    for args, golden in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "spinzeeman", *args], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_bytes(), args


def test_output_is_reproducible(capsys):
    args = ("sweep", "--system", "dipositronium", "--scheme", "like-pairs",
            "--bmin", "-1", "--bmax", "1", "--steps", "5", "--format", "json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_fmt_normalizes_negative_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.5) == "0.5"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(-1e-17) == "-1e-17"


def test_basis_json_round_trip(capsys):
    code, out, _err = run_cli(
        capsys, "basis", "--system", "dipositronium", "--scheme", "like-pairs",
        "--m", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        "|2,1[2,2]⟩", "|1,1[2,2]⟩", "|1,1[1,0]⟩", "|1,1[0,1]⟩"
    ]
    assert payload["cols"][0] == "|↑↑↑↓⟩"
    # re-parsed values equal the formatter's values exactly
    system = SpinSystem.dipositronium()
    sector = m_sector(couple(system, CouplingTree.like_pairs(system)), 1.0)
    for row, expect in zip(payload["entries"], sector.matrix):
        for (re, im), z in zip(row, expect):
            assert re == float(fmt(z.real))
            assert im == float(fmt(z.imag))


def test_moment_json_matches_matrix(capsys):
    code, out, _err = run_cli(
        capsys, "moment", "--system", "dipositronium", "--scheme", "like-pairs",
        "--m", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    entries = np.array([[complex(re, im) for re, im in row]
                        for row in payload["entries"]])
    expected = 2.0 * np.array([
        [0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1.0]
    ])
    assert np.max(np.abs(entries - expected)) <= 1e-12


def test_sweep_csv_format(capsys):
    code, out, _err = run_cli(
        capsys, "sweep", "--system", "positronium", "--bmin", "-1",
        "--bmax", "1", "--steps", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "B,label,energy"
    rows = [line.split(",", 1) for line in lines[1:]]
    assert len(rows) == 3 * 4
    # sorted by (B, label)
    b_values = [float(r[0]) for r in rows]
    assert b_values == sorted(b_values)
    for start in range(0, 12, 4):
        labels = [rows[start + k][1].rsplit(",", 1)[0] for k in range(4)]
        assert labels == sorted(labels)


@pytest.mark.parametrize("bmin, bmax", [("nan", "1"), ("-inf", "1"),
                                        ("0", "inf"), ("0", "nan"),
                                        ("-1e308", "1e308")])
def test_sweep_non_finite_field_is_domain_error(capsys, bmin, bmax):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "positronium", f"--bmin={bmin}",
        "--bmax", bmax, "--steps", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "error: field grid must be finite\n"


@pytest.mark.parametrize("args, option, value", [
    (("classify", "--system", "dipositronium"), "--mu0", "-9.274e-24"),
    (("sweep", "--system", "positronium", "--bmax", "1e-3", "--steps", "3"),
     "--bmin", "-1e-3"),
    (("sweep", "--system", "positronium", "--bmin", "-2", "--steps", "3"),
     "--bmax", "-1E+0"),
    (("basis", "--system", "e,p,e", "--scheme", "((e1,p1),e2)"),
     "--m", "-1/2"),
    (("moment", "--system", "e,p,e", "--scheme", "((e1,p1),e2)"),
     "--m", "-.5"),
])
def test_spaced_negative_value_matches_attached_form(capsys, args, option,
                                                     value):
    spaced = run_cli(capsys, *args, option, value)
    attached = run_cli(capsys, *args, f"{option}={value}")
    assert spaced[0] == 0, spaced[2]
    assert spaced == attached


@pytest.mark.parametrize("bmin, bmax", [
    ("-inf", "1"), ("-INF", "1"), ("-Infinity", "1"), ("-1", "-nan"),
    ("-1", "-NaN"),
])
def test_spaced_non_finite_field_is_domain_error(capsys, bmin, bmax):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "positronium", "--bmin", bmin,
        "--bmax", bmax, "--steps", "3",
    )
    assert (code, out, err) == (1, "", "error: field grid must be finite\n")


@pytest.mark.parametrize("args, flag, value, option", [
    (("classify", "--system", "dipositronium"), "--mu", "-1e-3", "--mu0"),
    (("classify", "--system", "dipositronium"), "--mu0", "-1e-3", "--mu0"),
    (("sweep", "--system", "positronium", "--bmax", "1", "--steps", "3"),
     "--bmi", "-1e-3", "--bmin"),
    (("sweep", "--system", "positronium", "--bmin", "-2", "--steps", "3"),
     "--bma", "-1e-3", "--bmax"),
    (("sweep", "--system", "positronium", "--bmax", "1", "--steps", "3"),
     "--bmi", "-inf", "--bmin"),
])
def test_abbreviated_signed_option_takes_a_spaced_negative_value(
        capsys, args, flag, value, option):
    spaced = run_cli(capsys, *args, flag, value)
    attached = run_cli(capsys, *args, f"{option}={value}")
    assert spaced == attached
    assert spaced[0] == (1 if value == "-inf" else 0), spaced[2]


def test_ambiguous_abbreviation_is_usage_error(capsys):
    for value in ("1", "-1e-3"):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--system", "positronium", "--bm", value,
                  "--bmax", "1", "--steps", "3"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


def test_negative_si_mu0_negates_the_census_slopes(capsys):
    reports = {}
    for mu0 in ("9.274e-24", "-9.274e-24"):
        code, out, err = run_cli(
            capsys, "classify", "--system", "dipositronium", "--scheme",
            "like-pairs", "--mu0", mu0, "--format", "json",
        )
        assert code == 0, err
        reports[mu0] = json.loads(out)["states"]
    negated = reports["-9.274e-24"]
    classes = [s["classification"] for s in negated]
    assert [classes.count(c) for c in ("LINEAR", "QUADRATIC", "NONE")] == [
        4, 7, 5]
    for pos, neg in zip(reports["9.274e-24"], negated):
        assert neg["label"] == pos["label"]
        assert neg["classification"] == pos["classification"]
        assert neg["linear_slope"] == -pos["linear_slope"]
    assert any(s["linear_slope"] != 0 for s in negated)


def test_subnormal_mu0_prints_the_census_of_unit_mu0(capsys):
    tables = {}
    for mu0 in ("1", "5e-324"):
        code, out, err = run_cli(capsys, "classify", "--mu0", mu0,
                                 "--format", "csv")
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        # state, class and partners; slope and moment scale with mu0
        tables[mu0] = [(row[0], row[1], row[4]) for row in rows]
    assert tables["5e-324"] == tables["1"]
    classes = [row[1] for row in tables["1"][1:]]
    assert [classes.count(c) for c in ("LINEAR", "QUADRATIC", "NONE")] == [
        4, 7, 5]


def test_one_step_over_a_field_range_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "dipositronium", "--bmin", "0",
        "--bmax", "1", "--steps", "1",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_one_step_at_a_single_field_is_valid(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "dipositronium", "--bmin", "0",
        "--bmax", "0", "--steps", "1", "--format", "csv",
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["B", "label", "energy"]
    assert len(rows) == 1 + 16
    assert {row[0] for row in rows[1:]} == {"0"}


@pytest.mark.parametrize("args, m", [
    (("classify", "--m", "5"), "5"),
    (("basis", "--m", "3"), "3"),
    (("classify", "--m", "1/2"), "1/2"),
    (("moment", "--m", "-3"), "-3"),
    (("sweep", "--m", "5", "--bmin", "-1", "--bmax", "1", "--steps", "3"),
     "5"),
])
def test_m_without_states_is_domain_error(capsys, args, m):
    code, out, err = run_cli(capsys, *args, "--system", "dipositronium")
    assert code == 1
    assert out == ""
    assert err == f"error: no states with M={m} for 4 particles\n"


@pytest.mark.parametrize("args, code, last_line", [
    (("sweep", "--bmin", "0", "--bmax", "1", "--steps", "0"), 1,
     "error: steps must be at least 1"),
    (("basis", "--m", "0.3"), 2,
     "spinzeeman basis: error: argument --m: spin projection must be an "
     "integer or half-integer, got '0.3'"),
    (("basis", "--scheme", "foo"), 1,
     "error: unknown scheme 'foo'; use 'like-pairs', 'positronium-pairs', "
     "or a tree expression such as '((e1,e2),(p1,p2))'"),
    (("basis", "--scheme", "((e1,e2),(p1,p1))"), 1,
     "error: tree leaves (0, 2, 1, 1) must be a permutation of 0..3"),
    (("basis", "--system", "e,e,p", "--scheme", "like-pairs"), 1,
     "error: like-pairs coupling needs exactly two electrons and two "
     "positrons"),
    (("basis", "--system", "e,e", "--scheme", "positronium-pairs"), 1,
     "error: positronium-pairs coupling needs equally many electrons and "
     "positrons"),
    (("basis", "--system", "e,x"), 1,
     "error: unknown species 'x'; use 'e'/'electron' or 'p'/'positron'"),
], ids=["steps", "m", "scheme", "leaves", "like-pairs", "positronium-pairs",
        "species"])
def test_bad_arguments_print_their_message(capsys, args, code, last_line):
    try:
        exit_code = main(list(args))
    except SystemExit as exit_:  # a usage error
        exit_code = exit_.code
    captured = capsys.readouterr()
    assert (exit_code, captured.out) == (code, "")
    assert captured.err.splitlines()[-1] == last_line
    assert code == 2 or captured.err == last_line + "\n"


@pytest.mark.parametrize("m", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_m_is_usage_error(capsys, m):
    with pytest.raises(SystemExit) as info:
        main(["basis", "--system", "dipositronium", "--m", m])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --m: spin projection must be "
                        f"finite, got {m!r}\n")


@pytest.mark.parametrize("command", ["basis", "moment", "classify", "sweep"])
@pytest.mark.parametrize("m", ["1e308", "-1e308"])
def test_m_whose_double_overflows_is_usage_error(capsys, command, m):
    with pytest.raises(SystemExit) as info:
        main([command, "--system", "dipositronium", f"--m={m}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --m: spin projection out of range, "
                        f"got {m!r}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("bmin, bmax, steps",
                         [(-1.0, 1.0, 20), (-0.3, 0.7, 11)])
def test_sweep_grid_without_zero_matches_inserted_origin(capsys, bmin, bmax,
                                                         steps):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "positronium", f"--bmin={bmin}",
        "--bmax", str(bmax), "--steps", str(steps), "--format", "csv",
    )
    assert code == 0, err
    grid = np.linspace(bmin, bmax, steps)
    assert not np.any(grid == 0.0)
    with_zero = np.insert(grid, np.searchsorted(grid, 0.0), 0.0)
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    curves = level_curves(moment_matrix(full_transform(states)),
                          DegeneracySpec.isolated(len(states)), with_zero)
    order = sorted(range(len(states)), key=lambda k: curves.labels[k])
    expected = [
        ["B", "label", "energy"],
        *([fmt(b), curves.labels[k], fmt(curves.energies[i, k])]
          for i, b in enumerate(curves.b_values) if b != 0.0 for k in order),
    ]
    assert list(csv.reader(io.StringIO(out))) == expected


def test_mu0_scales_output(capsys):
    code, out, _err = run_cli(
        capsys, "moment", "--system", "dipositronium", "--scheme", "like-pairs",
        "--m", "1", "--mu0", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][0][1] == [-4.0, 0.0]


def test_explicit_tree_matches_preset(capsys):
    base = run_cli(
        capsys, "basis", "--system", "dipositronium", "--scheme",
        "positronium-pairs", "--m", "1",
    )
    explicit = run_cli(
        capsys, "basis", "--system", "dipositronium", "--scheme",
        "((e1,p1),(e2,p2))", "--m", "1",
    )
    assert base == explicit


def test_species_list_system(capsys):
    code, out, _err = run_cli(
        capsys, "basis", "--system", "e,p", "--m", "0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == ["|1,0⟩", "|0,0⟩"]


def test_exchange_command(capsys):
    code, out, _err = run_cli(
        capsys, "exchange", "--system", "dipositronium", "--scheme",
        "like-pairs", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == ["e1<->e2", "p1<->p2"]
    table = {s["label"]: s["eigenvalues"] for s in payload["states"]}
    assert table["|1,1[1,0]⟩"] == [1, -1]
    assert table["|0,0[0,0]⟩"] == [-1, -1]


def test_overlap_command(capsys):
    code, out, _err = run_cli(
        capsys, "overlap", "--system", "dipositronium", "--scheme",
        "like-pairs", "--scheme2", "positronium-pairs", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in payload["entries"]]
    )
    dev = np.max(np.abs(matrix @ matrix.conj().T - np.eye(16)))
    assert dev <= 1e-9  # values pass through the 12-digit formatter


def test_unknown_preset_is_domain_error(capsys):
    code, _out, err = run_cli(capsys, "basis", "--system", "muonium")
    assert code == 1
    assert err.startswith("error:")
    assert "unknown system" in err


def test_malformed_tree_is_domain_error(capsys):
    code, _out, err = run_cli(
        capsys, "basis", "--system", "dipositronium", "--scheme", "((e1,e2),(p1)"
    )
    assert code == 1
    assert err.startswith("error:")


def test_tree_expressions_ignore_tabs_and_newlines(capsys):
    spaced = run_cli(capsys, "basis", "--scheme", "((e1, e2), (p1, p2))")
    assert spaced[0] == 0
    assert run_cli(capsys, "basis", "--scheme",
                   "(\t(e1,\te2),\n(p1,\r\np2) )") == spaced


def test_non_ascii_digit_leaf_is_an_unknown_name(capsys):
    # '²' is a digit to str.isdigit, and Arabic-Indic '١' and full-width
    # '１' are decimals to str.isdecimal, but none is a site index
    for digit in ("²", "١", "１"):
        code, out, err = run_cli(
            capsys, "classify", "--scheme", f"((e1,{digit}),(p1,p2))")
        assert (code, out) == (1, "")
        assert err == (f"error: unknown particle name '{digit}'; valid "
                       "names: e1, p1, e2, p2\n")


def test_usage_errors_exit_2(capsys):
    for args in ([], ["basis", "--m", "banana"], ["frobnicate"]):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        capsys.readouterr()


def test_missing_energies_file_is_domain_error(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys, "classify", "--system", "positronium",
        "--energies", str(tmp_path / "nope.csv"),
    )
    assert code == 1
    assert "error:" in err


def test_energies_file_parsing(capsys, tmp_path):
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))
    path = tmp_path / "energies.csv"
    path.write_text(
        "# singlet sits below the triplet\n"
        "\n"
        "|0,0⟩,-1.0\n",
        encoding="utf-8",
    )
    spec = parse_energies(str(path), states, states)
    assert spec.groups == ((0, 1, 3), (2,))
    assert spec.energies == (0.0, -1.0)
    # a leading byte-order mark is not part of the first label
    bom = tmp_path / "bom.csv"
    bom.write_text("|0,0⟩,-1.0\n", encoding="utf-8-sig")
    assert parse_energies(str(bom), states, states) == spec

    code, out, _err = run_cli(
        capsys, "classify", "--system", "positronium", "--energies", str(path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    table = {s["label"]: s["classification"] for s in payload["states"]}
    assert table["|1,0⟩"] == "QUADRATIC"
    assert table["|1,1⟩"] == "NONE"


def test_energies_file_errors(tmp_path):
    system = SpinSystem.positronium()
    states = couple(system, CouplingTree.positronium_pairs(system))

    dup = tmp_path / "dup.csv"
    dup.write_text("|0,0⟩,1.0\n|0,0⟩,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dup.csv:2"):
        parse_energies(str(dup), states, states)

    unknown = tmp_path / "unknown.csv"
    unknown.write_text("|7,7⟩,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown state label"):
        parse_energies(str(unknown), states, states)

    bad = tmp_path / "bad.csv"
    bad.write_text("|0,0⟩,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_energies(str(bad), states, states)

    for name, line, message in (
            ("fieldless.csv", "foo", "expected 'label,energy'"),
            ("infinite.csv", "|0,0⟩,inf", "energy must be finite")):
        path = tmp_path / name
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}:1: {message}$"):
            parse_energies(str(path), states, states)

    with pytest.raises(ValueError, match="^unknown state labels: \\|9,9⟩$"):
        DegeneracySpec.from_energy_map([s.label for s in states],
                                       {"|9,9⟩": 1.0})

    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("|0,0⟩,1.0\n".encode("utf-8") + b"# caf\xe9\n")
    message = (f"^cannot read energies file {re.escape(str(latin1))}: "
               "'utf-8' codec can't decode byte 0xe9")
    with pytest.raises(ValueError, match=message):
        parse_energies(str(latin1), states, states)


def _spin_energy_lines(m=None):
    """One 'label,S(S+1)' line per dipositronium positronium-pairs state,
    or per state of projection ``m``."""
    system = SpinSystem.dipositronium()
    basis = couple(system, CouplingTree.positronium_pairs(system))
    return [f"{s.label},{s.total_s * (s.total_s + 1)}\n" for s in basis
            if m is None or s.m == m]


SECTOR_ENERGIES = ("--system", "dipositronium", "--scheme",
                   "positronium-pairs", "--m", "1", "--energies")


@pytest.mark.parametrize("command", [
    ("classify",), ("sweep", "--bmin", "-1", "--bmax", "1", "--steps", "5")],
    ids=["classify", "sweep"])
def test_a_whole_basis_energies_file_serves_a_sector(capsys, tmp_path,
                                                      command):
    whole = tmp_path / "whole.csv"
    whole.write_text("".join(_spin_energy_lines()), encoding="utf-8")
    sector = tmp_path / "sector.csv"
    sector.write_text("".join(_spin_energy_lines(1.0)), encoding="utf-8")
    alone = run_cli(capsys, *command, *SECTOR_ENERGIES, str(sector))
    assert alone[0] == 0 and alone[1]
    assert run_cli(capsys, *command, *SECTOR_ENERGIES, str(whole)) == alone


@pytest.mark.parametrize("line, lineno, message", [
    ("|9,9⟩,1.0", 1, "unknown state label '|9,9⟩'; labels must match the "
                     "rendered kets exactly"),
    ("|2,2(1,1)⟩,5.0", 17, "duplicate label '|2,2(1,1)⟩'"),
    ("foo", 1, "expected 'label,energy'"),
    ("|2,2(1,1)⟩,abc", 1, "non-numeric energy 'abc'"),
    ("|2,2(1,1)⟩,inf", 1, "energy must be finite"),
])
def test_a_sector_run_checks_every_line(capsys, tmp_path, line, lineno,
                                        message):
    # a file for the whole basis with a faulty first line, whose state
    # (M = 2) lies outside the sector, or a faulty seventeenth line
    lines = _spin_energy_lines()
    lines[lineno - 1:lineno] = [line + "\n"]
    path = tmp_path / "faulty.csv"
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", *SECTOR_ENERGIES, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}:{lineno}: {message}\n"


def test_near_equal_energies_are_domain_error(capsys, tmp_path):
    path = tmp_path / "near.csv"
    path.write_text("|1,0⟩,1.0\n|0,0⟩,1.000000000001\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "classify", "--system", "positronium", "--energies", str(path),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: states |1,0⟩ and |0,0⟩ have distinct but "
                          "nearly equal energies")


def test_csv_quotes_labels_with_commas(capsys):
    code, out, _err = run_cli(
        capsys, "basis", "--system", "positronium", "--format", "csv",
    )
    assert code == 0
    assert '"|1,1⟩"' in out


# Each bad input exits 1 with one 'error:' line, also where numpy would
# print a warning first; pytest turns warnings into errors in-process, so
# these run in a child interpreter with the default warning filters.
UNDECODABLE = "<undecodable energies file>"
ERROR_CASES = {
    "deep-scheme": ["classify", "--scheme", "(" * 1200],
    "malformed-scheme": ["basis", "--scheme", "((e1,e2),(p1,p2)"],
    "classify-mu0": ["classify", "--mu0", "1e308"],
    "basis-mu0": ["basis", "--mu0", "1e308"],
    "zero-mu0": ["classify", "--mu0", "0"],
    "sweep-overflow": ["sweep", "--system", "positronium", "--mu0", "1e300",
                       "--bmin", "-1e10", "--bmax", "1e10", "--steps", "3"],
    "sweep-span": ["sweep", "--system", "positronium", "--bmin", "-1e308",
                   "--bmax", "1e308", "--steps", "3"],
    "energies": ["classify", "--system", "positronium", "--energies",
                 UNDECODABLE],
    "m": ["classify", "--m", "5"],
    # 7 PiB of field values: beyond any address space, so the allocation
    # fails outright rather than being granted and then touched
    "sweep-memory": ["sweep", "--system", "positronium", "--bmin", "0",
                     "--bmax", "1", "--steps", str(10**15)],
}


@pytest.mark.parametrize("args", ERROR_CASES.values(), ids=ERROR_CASES)
def test_bad_input_prints_one_error_line(args, tmp_path):
    path = tmp_path / "energies.csv"
    path.write_bytes(b"\xff\xfe\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, "-m", "spinzeeman",
         *[str(path) if arg == UNDECODABLE else arg for arg in args]],
        capture_output=True, env=env,
    )
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, proc.stdout) == (1, b""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("\n")


ENTRY_CASES = {
    "success": (["classify", "--system", "dipositronium"], 0),
    "domain-error": (["classify", "--m", "5"], 1),
    "usage-error": (["basis", "--m", "banana"], 2),
}


@pytest.mark.parametrize("args, expected", ENTRY_CASES.values(),
                         ids=ENTRY_CASES)
def test_entry_point_exits_as_main_returns(args, expected, capsysbinary):
    proc = subprocess.run([sys.executable, "-m", "spinzeeman", *args],
                          capture_output=True)
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    assert code == expected
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)


def test_entry_point_keeps_atexit_and_the_final_flush():
    # print() to a pipe is block-buffered, so the handler's line reaches
    # stdout only through the interpreter's final flush
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['spinzeeman', 'classify', '--system', 'positronium']\n"
        "runpy.run_module('spinzeeman', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    direct = subprocess.run(
        [sys.executable, "-m", "spinzeeman", "classify", "--system",
         "positronium"], capture_output=True)
    assert proc.stdout == direct.stdout + b"frozen True\n"


def test_main_and_the_entry_module_freeze_nothing(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "classify", "--system", "positronium")[0] == 0
    assert gc.get_freeze_count() == before
    sys.modules.pop("spinzeeman.__main__", None)
    importlib.import_module("spinzeeman.__main__")
    assert gc.get_freeze_count() == before


def test_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["spinzeeman"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
