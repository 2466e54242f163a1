"""Exact level curves E(B) for positronium and dipositronium.

Positronium reproduces the textbook picture: the M=0 pair repels
quadratically around the singlet-triplet gap while the M=+/-1 levels stay
flat.  Free dipositronium spins fan out linearly with slopes set by the
moment eigenvalues.
"""

import numpy as np

from spinzeeman import (
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    couple,
    full_transform,
    level_curves,
    moment_matrix,
)

# --- positronium with a singlet-triplet gap -------------------------------
system = SpinSystem.positronium()
states = couple(system, CouplingTree.positronium_pairs(system))
labels = [s.label for s in states]
gap = 1.0  # singlet sits one energy unit below the triplet
spec = DegeneracySpec.from_energy_map(labels, {"|0,0⟩": -gap})
grid = np.linspace(-1.0, 1.0, 9)
curves = level_curves(moment_matrix(full_transform(states)), spec, grid)

print("positronium levels (gap = 1, energies per mu0 field unit):")
header = "  ".join(f"{lab:>8}" for lab in curves.labels)
print(f"{'B':>6}  {header}")
for i, b in enumerate(curves.b_values):
    row = "  ".join(f"{e:+8.4f}" for e in curves.energies[i])
    print(f"{b:+6.2f}  {row}")

closed_form = -gap / 2 + np.sqrt((gap / 2) ** 2 + (2 * grid) ** 2)
branch = curves.energies[:, curves.labels.index("|1,0⟩")]
dev = np.max(np.abs(branch - closed_form))
print(f"max deviation of |1,0> from the closed-form branch: {dev:.2e}")
print()

# --- free dipositronium: a linear fan --------------------------------------
system = SpinSystem.dipositronium()
states = couple(system, CouplingTree.like_pairs(system))
spec = DegeneracySpec.isolated(len(states))
grid = np.linspace(0.0, 1.0, 3)
curves = level_curves(moment_matrix(full_transform(states)), spec, grid)
slopes = sorted(curves.energies[-1])  # E(B=1) equals the slope here
print("dipositronium slopes at H0 = 0 (multiplicities):")
for value in sorted(set(np.round(slopes, 10))):
    count = int(np.sum(np.isclose(slopes, value)))
    print(f"  {value:+.0f} mu0 x {count}")
