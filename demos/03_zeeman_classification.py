"""Zeeman classification of every dipositronium spin state.

With each coupled state taken as its own unperturbed level, a state is
LINEAR when its moment expectation is nonzero (slope = -<mu_z> per field
unit), QUADRATIC when it only couples off-diagonally, and NONE when its
entire moment row vanishes.  The verdicts depend on the coupling scheme:
the like-pairs basis has four linear states, the positronium-pairs basis
has none.
"""

from spinzeeman import (
    Classification,
    CouplingTree,
    DegeneracySpec,
    SpinSystem,
    classify,
    classify_exchange,
    couple,
    moment_matrix,
)

system = SpinSystem.dipositronium()

for name in ("like-pairs", "positronium-pairs"):
    tree = (CouplingTree.like_pairs(system) if name == "like-pairs"
            else CouplingTree.positronium_pairs(system))
    states = couple(system, tree)
    report = classify(
        moment_matrix(states),
        DegeneracySpec.isolated(len(states)),
    )
    counts = report.counts()
    print(f"{name}: "
          + ", ".join(f"{c.value} x {counts[c]}" for c in Classification))
    for entry in report.states:
        if entry.classification is Classification.LINEAR:
            print(f"  {entry.label}  slope {entry.linear_slope:+.0f} mu0")
    print()

# The linear states carry a distinctive permutation signature: symmetric
# under one like-particle swap and antisymmetric under the other, with
# every contributing ket holding three spins up and one down (or the
# reverse).  That pattern singles them out among all sixteen states.
states = couple(system, CouplingTree.like_pairs(system))
pairs = [(0, 2), (1, 3)]  # e1 <-> e2 and p1 <-> p2
print("exchange eigenvalues (electron swap, positron swap):")
for state, row in zip(states, classify_exchange(states, pairs)):
    if abs(state.m) == 1.0:
        print(f"  {state.label}:  {row[0]:>2}, {row[1]:>2}")
