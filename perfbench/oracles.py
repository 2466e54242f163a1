"""Output checks that do not rely on the code under test.

Each check returns a list of error strings; an empty list means the output
is correct.  Closed forms and product-basis spectra are built here from bit
arithmetic; recorded values (census counts, CLI stdout digests) come from
``reference.json``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from spinzeeman.system import Species

# Relative to the scale of the compared quantity.
REL_TOL = 1e-10


def census_counts(report) -> "dict[str, int]":
    return {kind.value: count for kind, count in report.counts().items()}


def label_digest(report) -> str:
    """sha256 over the sorted (label, classification) pairs."""
    lines = sorted(f"{s.label}\t{s.classification.value}" for s in report.states)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def census_reference(result) -> dict:
    """What a census must reproduce for every site order.

    Counts under both specs, and the label-level verdicts under the isolated
    spec.  Grouped labels are not compared: a group-rotated state takes the
    label of its largest overlap, which is not unique inside a degenerate
    moment subspace.
    """
    return {
        "isolated": census_counts(result.isolated),
        "grouped": census_counts(result.grouped),
        "isolated_labels_sha256": label_digest(result.isolated),
    }


def projection_diagonal(states, species, mu0: float) -> np.ndarray:
    """<mu_z> of every state of an electron (x) positron tree.

    Projection theorem: 2 mu0 M [Jp(Jp+1) - Je(Je+1)] / [S(S+1)], and 0
    for S = 0, where Je and Jp are the spins of the electron and positron
    subtrees.
    """
    sites = {
        kind: frozenset(k for k, s in enumerate(species) if s is kind)
        for kind in (Species.ELECTRON, Species.POSITRON)
    }
    out = np.zeros(len(states))
    for k, state in enumerate(states):
        spins = {frozenset(node): spin for node, spin in state.intermediates}
        je, jp = (spins.get(sites[kind], 0.5) for kind in
                  (Species.ELECTRON, Species.POSITRON))
        s = state.total_s
        if s:
            out[k] = 2 * mu0 * state.m * (jp * (jp + 1) - je * (je + 1)) / (
                s * (s + 1))
    return out


def census_errors(tree: str, result, species, mu0: float,
                  reference: "dict | None") -> "list[str]":
    """Checks of one tree's census.

    ``atom`` (electron-positron atoms chained): every diagonal moment is 0.
    ``ep`` (electron chain with positron chain): every diagonal moment is
    the projection-theorem value.  Both: the isolated census has exactly as
    many LINEAR states as nonzero expected diagonals, the second-order
    coefficients sum to 0 (each coupled pair enters with opposite signs),
    the scheme overlap is unitary, and the census matches the reference.
    """
    errors = []
    scale = abs(mu0) * len(species)
    diagonal = result.moments.entries.diagonal().real
    if tree == "atom":
        expected = np.zeros(len(diagonal))
    else:
        expected = projection_diagonal(result.states, species, mu0)
    err = float(np.max(np.abs(diagonal - expected)))
    if err > REL_TOL * scale:
        errors.append(f"{tree}: diagonal moment off its closed form by {err:.3e}")
    counts = census_counts(result.isolated)
    want = int(np.count_nonzero(np.abs(expected) > REL_TOL * scale))
    if counts["LINEAR"] != want:
        errors.append(f"{tree}: {counts['LINEAR']} LINEAR states, "
                      f"closed form gives {want}")
    total = float(np.sum(result.quadratic))
    if abs(total) > REL_TOL * max(1.0, float(np.sum(np.abs(result.quadratic)))):
        errors.append(f"{tree}: quadratic coefficients sum to {total:.3e}, not 0")
    if result.overlap is not None:
        gram = result.overlap @ result.overlap.conj().T
        dev = float(np.max(np.abs(gram - np.eye(len(gram)))))
        if dev > REL_TOL:
            errors.append(f"scheme overlap deviates from unitary by {dev:.3e}")
    if reference is not None:
        got = census_reference(result)
        for key, value in reference.items():
            if got[key] != value:
                errors.append(f"{tree}: {key} {got[key]} differs from the "
                              f"reference {value}")
    return errors


class ProductSpectrum:
    """S^2 - B mu_z on the 2^N product basis, from bit arithmetic.

    H0 = S(S+1) is the spectrum of S^2 = 3N/4 - N(N-1)/4 + sum_{i<j} P_ij,
    with P_ij the transposition of sites i and j, so the eigenvalues of
    S^2 - B mu_z are the exact energies at field B whatever basis the level
    curves were computed in.
    """

    def __init__(self, species, mu0: float):
        n = len(species)
        index = np.arange(1 << n)
        bits = (index[:, None] >> (n - 1 - np.arange(n))) & 1
        signs = np.array([+1 if s is Species.POSITRON else -1 for s in species])
        self.mu = mu0 * ((1 - 2 * bits) * signs).sum(axis=1)
        s2 = np.eye(1 << n) * (3 * n / 4 - n * (n - 1) / 4)
        for i in range(n):
            for j in range(i + 1, n):
                flip = (bits[:, i] ^ bits[:, j]) * ((1 << (n - 1 - i))
                                                    | (1 << (n - 1 - j)))
                s2[index ^ flip, index] += 1.0
        self.s2 = s2

    def sweep_errors(self, curves, grid) -> "list[str]":
        """Each grid row, once sorted, equals eigvalsh(H0 - B mu)."""
        errors = []
        for row, b in zip(curves.energies, grid):
            exact = np.linalg.eigvalsh(self.s2 - b * np.diag(self.mu))
            err = float(np.max(np.abs(np.sort(row) - exact)))
            if err > REL_TOL * max(1.0, float(np.max(np.abs(exact)))):
                errors.append(f"B={b:g}: sorted energies off the product "
                              f"spectrum by {err:.3e}")
        return errors


def stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def cli_errors(out, expected: "dict | None",
               golden: "Path | None") -> "list[str]":
    """Exit code and stdout digest against the reference, stdout against a
    golden snapshot where one exists."""
    errors = []
    want_code = 0 if expected is None else expected["exit"]
    if out.code != want_code:
        errors.append(f"exit code {out.code}, expected {want_code}: "
                      f"{out.stderr.decode(errors='replace').strip()}")
    if expected is not None and stdout_digest(out.stdout) != expected["sha256"]:
        errors.append("stdout digest differs from the reference")
    if golden is not None and out.stdout != golden.read_bytes():
        errors.append(f"stdout differs from {golden.name}")
    return errors


def si_census_errors(out) -> "list[str]":
    """The like-pairs census is 4 LINEAR, 7 QUADRATIC, 5 NONE in any unit."""
    if out.code != 0:
        return [f"exit code {out.code}"]
    counts = {"LINEAR": 0, "QUADRATIC": 0, "NONE": 0}
    for line in out.stdout.decode().splitlines()[1:]:
        fields = line.split()
        if len(fields) > 1 and fields[1] in counts:
            counts[fields[1]] += 1
    want = {"LINEAR": 4, "QUADRATIC": 7, "NONE": 5}
    return [] if counts == want else [f"census {counts}, expected {want}"]
