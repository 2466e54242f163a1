"""Spin-1/2 particle systems with signed magnetic moments.

A :class:`SpinSystem` is an ordered list of spin-1/2 sites, each tagged as
an electron (moment sign -1) or positron (moment sign +1), together with a
moment unit ``mu0``.  Product states are ordered with the leftmost particle
as the most significant bit, bit 0 meaning spin up.
"""

from __future__ import annotations

import enum
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
class ParticleSpec:
    """One spin-1/2 site: its position in the product ordering and species."""

    index: int
    species: Species

    @property
    def moment_sign(self) -> int:
        return self.species.moment_sign


@dataclass(frozen=True)
class SpinSystem:
    """Ordered collection of spin-1/2 particles sharing a moment unit.

    Args:
        particles: sites in product-basis order; ``particles[k].index`` must
            equal ``k``.
        mu0: magnetic-moment unit (energy per field unit).
    """

    particles: tuple[ParticleSpec, ...]
    mu0: float = 1.0

    def __post_init__(self) -> None:
        n = len(self.particles)
        if not 1 <= n <= MAX_PARTICLES:
            raise ValueError(
                f"need between 1 and {MAX_PARTICLES} particles, got {n}; "
                f"dense matrices beyond 2^{MAX_PARTICLES} are not supported"
            )
        for k, p in enumerate(self.particles):
            if p.index != k:
                raise ValueError(
                    f"particle at position {k} carries index {p.index}; "
                    "indices must run 0..N-1 in order"
                )
        if not math.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")

    @property
    def n(self) -> int:
        return len(self.particles)

    @property
    def dimension(self) -> int:
        return 1 << self.n

    @property
    def names(self) -> tuple[str, ...]:
        """Per-species names in site order: e1, p1, e2, ... ."""
        counts = {Species.ELECTRON: 0, Species.POSITRON: 0}
        names = []
        for p in self.particles:
            counts[p.species] += 1
            names.append(f"{p.species.code}{counts[p.species]}")
        return tuple(names)

    def moment_signs(self) -> tuple[int, ...]:
        return tuple(p.moment_sign for p in self.particles)

    def species_indices(self, species: Species) -> tuple[int, ...]:
        return tuple(p.index for p in self.particles if p.species is species)

    @classmethod
    def from_species(cls, species: "list[Species] | tuple[Species, ...]",
                     mu0: float = 1.0) -> "SpinSystem":
        parts = tuple(ParticleSpec(k, s) for k, s in enumerate(species))
        return cls(parts, mu0)

    @classmethod
    def dipositronium(cls, mu0: float = 1.0) -> "SpinSystem":
        """Two electrons and two positrons in the order (e1, p1, e2, p2)."""
        order = (Species.ELECTRON, Species.POSITRON,
                 Species.ELECTRON, Species.POSITRON)
        return cls.from_species(order, mu0)

    @classmethod
    def positronium(cls, mu0: float = 1.0) -> "SpinSystem":
        """A single electron-positron pair (e1, p1)."""
        return cls.from_species((Species.ELECTRON, Species.POSITRON), mu0)


@dataclass(frozen=True)
class ProductState:
    """One ket of the 2^N product basis; bit 0 means up, 1 means down."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a non-empty sequence over {0, 1}")

    @classmethod
    def from_index(cls, index: int, n: int) -> "ProductState":
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for {n} particles")
        bits = tuple((index >> (n - 1 - k)) & 1 for k in range(n))
        return cls(bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @property
    def m(self) -> float:
        """Total spin projection: (ups - downs) / 2."""
        downs = sum(self.bits)
        return (self.n - 2 * downs) / 2

    @property
    def label(self) -> str:
        arrows = "".join("↓" if b else "↑" for b in self.bits)
        return f"|{arrows}⟩"


def _bit_table(n: int) -> np.ndarray:
    """Bits of every product index: row i holds the n bits of index i, the
    leftmost particle (most significant bit) in column 0."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def product_states_with_m(n: int, m: float) -> list[ProductState]:
    """All product states of given projection, in ascending index order."""
    bits = _bit_table(n)
    keep = (n - 2 * bits.sum(axis=1)) / 2 == m
    return [ProductState(tuple(row)) for row in bits[keep].tolist()]
