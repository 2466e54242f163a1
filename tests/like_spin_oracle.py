"""The like-particle reduction: Zeeman verdicts under spin-only specs from
four quantum numbers per state.

mu_z = 2 mu0 (S_pz - S_ez), the electron's moment sign being -1, commutes
with S_e^2 and S_p^2, the squared total spins of the electrons and of the
positrons.  So in a basis |alpha_e S_e, alpha_p S_p; S M> the moment only
couples states of one (S_e, S_p, M) and one copy (alpha_e, alpha_p), and
each (S_e, S_p, S, M) comes in d(n_e, S_e) d(n_p, S_p) copies, with
d(n, S) = C(n, n/2 - S) - C(n, n/2 - S - 1).  By the projection theorem
the first-order moment of |S_e S_p; S M> is

    2M [S_p(S_p+1) - S_e(S_e+1)] / [S(S+1)] mu0,  and 0 at S = 0.

Under E = S(S+1) each total spin is one group.  A state is LINEAR iff its
moment is nonzero (M != 0 and S_e != S_p).  It is NONE iff it is the only
member of its (S_e, S_p, M) block in S, that is, it couples to no state
of another total spin, and its moment is zero.  Otherwise it is QUADRATIC.

The ``ep`` tree (the electrons chained, the positrons chained, then the
two chains coupled) has this basis, so its states carry S_e and S_p as
intermediate spins and its census must equal this one.  The ``atom``
tree's grouped census is left out: ``classify`` gives it a NONE count
that depends on the tree (ROADMAP item 12), for example 4/9/3 against
4/7/5 for two electrons and two positrons.

Counts are exact integers, from ``math.comb``.
"""

from __future__ import annotations

from math import comb

from spinzeeman import DegeneracySpec, Species


def multiplicity(n: int, two_s: int) -> int:
    """d(n, S): how many times total spin S = two_s / 2 occurs among n
    spin-1/2 particles."""
    k = (n - two_s) // 2
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def doubled_spins(n: int) -> range:
    """The doubled total spins n, n - 2, ..., down to 0 or 1."""
    return range(n, -1, -2)


def like_spins(state, species) -> "tuple[int, int, int, int]":
    """The doubled (S_e, S_p, S, M) of ``state``, a state of a tree that
    couples the electrons and the positrons apart before joining them;
    ``species`` lists each site's species.  A species of one site is a leaf
    of spin 1/2."""
    spins = {frozenset(sites): spin for sites, spin in state.intermediates}
    two_e, two_p = (
        round(2 * spins.get(frozenset(k for k, s in enumerate(species)
                                      if s is kind), 0.5))
        for kind in (Species.ELECTRON, Species.POSITRON))
    return two_e, two_p, round(2 * state.total_s), round(2 * state.m)


def moment(two_e: int, two_p: int, two_s: int, two_m: int) -> float:
    """The first-order moment of |S_e S_p; S M>, in units of mu0, from
    doubled spins."""
    if two_s == 0:
        return 0.0
    # 2M [S_p(S_p+1) - S_e(S_e+1)] / [S(S+1)] with every spin doubled
    return (two_m * (two_p * (two_p + 2) - two_e * (two_e + 2))
            / (two_s * (two_s + 2)))


def verdict(two_e: int, two_p: int, two_s: int, two_m: int) -> str:
    """LINEAR, QUADRATIC or NONE under E = S(S+1), from doubled spins."""
    if two_m != 0 and two_e != two_p:
        return "LINEAR"
    # the total spins of the (S_e, S_p, M) block: max(|S_e - S_p|, |M|)
    # up to S_e + S_p
    size = (two_e + two_p - max(abs(two_e - two_p), abs(two_m))) // 2 + 1
    return "NONE" if size == 1 else "QUADRATIC"


def census(n_e: int, n_p: int) -> "dict[str, int]":
    """The number of LINEAR, QUADRATIC and NONE states of n_e electrons
    and n_p positrons under E = S(S+1)."""
    counts = {"LINEAR": 0, "QUADRATIC": 0, "NONE": 0}
    for two_e in doubled_spins(n_e):
        for two_p in doubled_spins(n_p):
            copies = multiplicity(n_e, two_e) * multiplicity(n_p, two_p)
            for two_s in range(abs(two_e - two_p), two_e + two_p + 1, 2):
                for two_m in range(-two_s, two_s + 1, 2):
                    counts[verdict(two_e, two_p, two_s, two_m)] += copies
    return counts


def spin_grouped(states) -> DegeneracySpec:
    """E = S(S+1): one degenerate group per total spin of ``states``."""
    groups: dict[float, list[int]] = {}
    for k, state in enumerate(states):
        groups.setdefault(state.total_s, []).append(k)
    return DegeneracySpec(tuple(tuple(g) for g in groups.values()),
                          tuple(s * (s + 1) for s in groups))
