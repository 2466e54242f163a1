"""The dipositronium product space, its multiplets and its moment diagonal.

Builds the 16-dimensional spin space of two electrons and two positrons from
its bit table, counts the total-spin multiplets of a coupled basis, and
inspects the magnetic-moment diagonal.
"""

from collections import Counter

import numpy as np

from spinzeeman import (
    CouplingTree,
    SpinSystem,
    couple,
    full_transform,
)
from spinzeeman.system import _bit_table

system = SpinSystem.dipositronium()
print("particles:", ", ".join(system.names))
print("dimension:", system.dimension)
print()

# Row i of the bit table holds the spins of product state i, the leftmost
# particle first, 1 meaning down.  S_z is diagonal in the product basis;
# each ket's eigenvalue is just the count of ups minus downs over two.
bits = _bit_table(system.n)
sz = (system.n - 2 * bits.sum(axis=1)) / 2
states = couple(system, CouplingTree.like_pairs(system))
kets = full_transform(states).column_labels  # |up...> per product index
ket = 0b0001  # |up up up down>
print(f"S_z diagonal at {kets[ket]}:", sz[ket])

# Coupling sorts the 16 product states into multiplets: one S=2 quintet,
# three S=1 triplets, two S=0 singlets, so S^2 = S(S+1) has multiplicities
# 2, 9 and 5.
multiplicities = Counter(int(s.total_s * (s.total_s + 1)) for s in states)
print("S^2 eigenvalue multiplicities:", dict(sorted(multiplicities.items())))
print()

# The magnetic moment mu_z = mu0 (sigma_p1 - sigma_e1 + sigma_p2 - sigma_e2)
# is diagonal here too, with signed sums in {-4, -2, 0, 2, 4} mu0.
# Each site adds its moment sign times sigma_z = +1 up, -1 down.
diag = system.mu0 * ((1 - 2 * bits) @ system.moment_signs())
print("mu_z diagonal values and counts:")
for value in sorted(set(diag)):
    print(f"  {value:+.0f} mu0 x {int(np.sum(diag == value))}")

print()
print("examples:")
for ket in [0b0000, 0b0001, 0b1010]:
    print(f"  {kets[ket]}: {diag[ket]:+.0f} mu0")
