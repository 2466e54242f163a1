"""Spin-1/2 particle systems with signed magnetic moments.

A :class:`SpinSystem` is an ordered list of spin-1/2 sites, each tagged as
an electron (moment sign -1) or positron (moment sign +1), together with a
moment unit ``mu0``.  Product states are ordered with the leftmost particle
as the most significant bit, bit 0 meaning spin up.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_PARTICLES = 12


class Species(enum.Enum):
    """Particle species; fixes the sign of the magnetic moment."""

    ELECTRON = "electron"
    POSITRON = "positron"

    @property
    def moment_sign(self) -> int:
        return -1 if self is Species.ELECTRON else +1

    @property
    def code(self) -> str:
        return "e" if self is Species.ELECTRON else "p"


_SPECIES_ALIASES = {
    "e": Species.ELECTRON,
    "electron": Species.ELECTRON,
    "p": Species.POSITRON,
    "positron": Species.POSITRON,
}


def species_from_name(name: str) -> Species:
    try:
        return _SPECIES_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown species {name!r}; use 'e'/'electron' or 'p'/'positron'"
        ) from None


@dataclass(frozen=True)
class SpinSystem:
    """Ordered collection of spin-1/2 particles sharing a moment unit.

    Args:
        species: the species of each site, in product-basis order.
        mu0: magnetic-moment unit (energy per field unit), nonzero; the
            library works in units of mu0 and scales only what it returns.
    """

    species: tuple[Species, ...]
    mu0: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "species", tuple(self.species))
        n = len(self.species)
        if not 1 <= n <= MAX_PARTICLES:
            raise ValueError(
                f"need between 1 and {MAX_PARTICLES} particles, got {n}; "
                f"dense matrices beyond 2^{MAX_PARTICLES} are not supported"
            )
        for site in self.species:
            if not isinstance(site, Species):
                raise ValueError(f"site {site!r} is not a Species; read "
                                 "names with species_from_name")
        try:
            mu0 = float(self.mu0)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"mu0 must convert to a float; mu0={self.mu0!r}"
                             ) from None
        object.__setattr__(self, "mu0", mu0)
        # each product state's moment is mu0 k, |k| <= n
        if not math.isfinite(n * mu0):
            raise ValueError(f"n * mu0 must be finite; n={n}, mu0={mu0!r}")
        if mu0 == 0.0:
            raise ValueError(f"mu0 must be nonzero; mu0={mu0!r}")

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def dimension(self) -> int:
        return 1 << self.n

    @property
    def names(self) -> tuple[str, ...]:
        """Per-species names in site order: e1, p1, e2, ... ."""
        counts = {Species.ELECTRON: 0, Species.POSITRON: 0}
        names = []
        for site in self.species:
            counts[site] += 1
            names.append(f"{site.code}{counts[site]}")
        return tuple(names)

    def moment_signs(self) -> tuple[int, ...]:
        return tuple(site.moment_sign for site in self.species)

    def species_indices(self, species: Species) -> tuple[int, ...]:
        return tuple(k for k, site in enumerate(self.species)
                     if site is species)

    # kept for the benchmark's workloads, which build their systems with it
    @classmethod
    def from_species(cls, species: "list[Species] | tuple[Species, ...]",
                     mu0: float = 1.0) -> "SpinSystem":
        return cls(species, mu0)

    @classmethod
    def dipositronium(cls, mu0: float = 1.0) -> "SpinSystem":
        """Two electrons and two positrons in the order (e1, p1, e2, p2)."""
        order = (Species.ELECTRON, Species.POSITRON,
                 Species.ELECTRON, Species.POSITRON)
        return cls(order, mu0)

    @classmethod
    def positronium(cls, mu0: float = 1.0) -> "SpinSystem":
        """A single electron-positron pair (e1, p1)."""
        return cls((Species.ELECTRON, Species.POSITRON), mu0)


@functools.lru_cache(maxsize=None)
def _bit_table(n: int) -> np.ndarray:
    """Bits of every product index: row i holds the n bits of index i, the
    leftmost particle (most significant bit) in column 0.  Built once per n
    and read-only."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def _projections(n: int) -> np.ndarray:
    """Total spin projection (ups - downs) / 2 of every product index."""
    return (n - 2 * _bit_table(n).sum(axis=1)) / 2


def _signed_spins(system: SpinSystem) -> np.ndarray:
    """Diagonal of mu_z in units of mu0: sum_i sign_i sigma_z,i, integers."""
    return (1 - 2 * _bit_table(system.n)) @ system.moment_signs()


def product_states_with_m(n: int, m: float) -> np.ndarray:
    """Indices of the product states of projection m, in ascending order."""
    return np.flatnonzero(_projections(n) == m)
