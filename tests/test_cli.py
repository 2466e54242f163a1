"""Command-line interface: golden snapshots, formats, errors, exit codes."""

import csv
import io
import json
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
                                        ("0", "inf"), ("0", "nan")])
def test_sweep_non_finite_field_is_domain_error(capsys, bmin, bmax):
    code, out, err = run_cli(
        capsys, "sweep", "--system", "positronium", f"--bmin={bmin}",
        "--bmax", bmax, "--steps", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "error: field grid must be finite\n"


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
    spec = parse_energies(str(path), states)
    assert spec.groups == ((0, 1, 3), (2,))
    assert spec.energies == (0.0, -1.0)

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
        parse_energies(str(dup), states)

    unknown = tmp_path / "unknown.csv"
    unknown.write_text("|7,7⟩,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown state label"):
        parse_energies(str(unknown), states)

    bad = tmp_path / "bad.csv"
    bad.write_text("|0,0⟩,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_energies(str(bad), states)


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
