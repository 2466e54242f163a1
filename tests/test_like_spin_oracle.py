"""``classify`` and ``level_curves`` against the like-particle oracle.

On a tree that chains the electrons and the positrons apart, every state
is |S_e S_p; S M>, so its isolated moment is the projection-theorem value
and the grouped census under E = S(S+1) is the oracle's count
(``like_spin_oracle``).  For two electrons and two positrons the nonzero
moments are the paper's: the four S = 1, M = +-1 states in which one like
pair is a triplet and the other a singlet, at +-2 mu0.  The spectrum of
H(B) does not depend on the tree, so on ``atom`` and ``ep`` trees alike
the sorted level curves are the oracle's (S_e, S_p, M) block spectra.
"""

import numpy as np
import pytest

from like_spin_oracle import (
    block,
    census,
    like_spins,
    moment,
    spectrum,
    spin_grouped,
)
from spinzeeman import (
    Classification,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    couple,
    level_curves,
    moment_matrix,
)
from test_moment_sectors import _trees

# (n_e, n_p): the oracle's L/Q/N counts
CENSUS = {
    (2, 2): (4, 7, 5),
    (3, 3): (24, 30, 10),
    (4, 4): (112, 104, 40),
    (5, 5): (500, 440, 84),
    (3, 2): (32, 0, 0),
    (1, 3): (6, 6, 4),
}


# B = 0 and fields of both signs
FIELDS = np.array([-0.8, -0.05, 0.0, 0.3, 1.1])


def _species(n_e, n_p):
    """n_e electrons and n_p positrons, alternating e, p, ... with the
    unpaired sites last."""
    return ([Species.ELECTRON, Species.POSITRON] * min(n_e, n_p)
            + [Species.ELECTRON] * (n_e - n_p)
            + [Species.POSITRON] * (n_p - n_e))


def _ep_basis(n_e, n_p, mu0=1.0):
    """The ``ep`` basis of n_e electrons and n_p positrons (``_species``),
    and each state's doubled (S_e, S_p, S, M)."""
    species = _species(n_e, n_p)
    basis = couple(SpinSystem(species, mu0), _trees(species)["ep"])
    return basis, [like_spins(state, species) for state in basis]


def _counts(report):
    counts = report.counts()
    return tuple(counts[c] for c in (Classification.LINEAR,
                                     Classification.QUADRATIC,
                                     Classification.NONE))


@pytest.mark.parametrize("n_e, n_p", list(CENSUS), ids=str)
def test_grouped_census_on_ep_trees_is_the_oracles(n_e, n_p):
    oracle = census(n_e, n_p)
    assert (oracle["LINEAR"], oracle["QUADRATIC"], oracle["NONE"]) \
        == CENSUS[n_e, n_p]
    basis, _quantum = _ep_basis(n_e, n_p)
    report = classify(moment_matrix(basis), spin_grouped(basis))
    assert _counts(report) == CENSUS[n_e, n_p]


@pytest.mark.parametrize("n_e, n_p", list(CENSUS), ids=str)
@pytest.mark.parametrize("mu0", [1.0, -0.75])
def test_isolated_moments_on_ep_trees_are_the_projection_values(n_e, n_p,
                                                                  mu0):
    basis, quantum = _ep_basis(n_e, n_p, mu0)
    report = classify(moment_matrix(basis),
                      DegeneracySpec.isolated(len(basis)))
    scale = abs(mu0) * (n_e + n_p)
    for state, numbers in zip(report.states, quantum):
        expected = moment(*numbers) * mu0
        assert abs(state.moment - expected) <= 1e-12 * scale, \
            (state.label, numbers)
        assert (state.classification is Classification.LINEAR) \
            == (expected != 0.0), state.label


@pytest.mark.parametrize("grouped", [False, True], ids=["isolated", "S(S+1)"])
@pytest.mark.parametrize("shape", ["atom", "ep"])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_sorted_level_curves_are_the_oracles_spectrum(n, shape, grouped):
    species = _species(n // 2, n // 2)
    basis = couple(SpinSystem(species), _trees(species)[shape])
    spec = (spin_grouped(basis) if grouped
            else DegeneracySpec.isolated(len(basis)))
    curves = level_curves(moment_matrix(basis), spec, FIELDS)
    for b, energies in zip(FIELDS, np.sort(curves.energies, axis=1)):
        oracle = spectrum(n // 2, n // 2, b, grouped=grouped)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(energies - oracle)) <= 1e-13 * scale, b


@pytest.mark.parametrize("mu0", [1.0, -0.75])
def test_paper_states_are_the_straight_lines_two_plus_minus_two_mu0_b(mu0):
    """At N = 4 the (S_e, S_p) = (1, 0) and (0, 1) blocks at M = +-1 hold
    one S = 1 state each, which the field shifts linearly at +-2 mu0 about
    E = S(S+1) = 2; ``level_curves`` draws those states on the lines."""
    basis, quantum = _ep_basis(2, 2, mu0)
    curves = level_curves(moment_matrix(basis), spin_grouped(basis), FIELDS)
    lines = {}
    for two_e, two_p in ((2, 0), (0, 2)):
        for two_m in (2, -2):
            energy, t = block(two_e, two_p, two_m, grouped=True)
            assert energy.tolist() == [2.0] and t.shape == (1, 1)
            # E = 2 - B mu0 2 (m_p - m_e), the triplet pair carrying M
            slope = 2.0 * mu0 * (two_e - two_p) * two_m / 4
            line = 2.0 + slope * FIELDS
            assert np.max(np.abs(energy - FIELDS[:, None] * mu0 * t
                                 - line[:, None])) <= 1e-15 * 4
            lines[two_e, two_p, 2, two_m] = line
    assert sorted(set(quantum) & set(lines)) == sorted(lines)
    for k, numbers in enumerate(quantum):
        if numbers in lines:
            assert np.max(np.abs(curves.energies[:, k] - lines[numbers])) \
                <= 1e-13 * 4
