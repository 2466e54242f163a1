"""``classify`` on ``ep`` trees against the like-particle census oracle.

On a tree that chains the electrons and the positrons apart, every state
is |S_e S_p; S M>, so its isolated moment is the projection-theorem value
and the grouped census under E = S(S+1) is the oracle's count
(``like_spin_oracle``).  For two electrons and two positrons the nonzero
moments are the paper's: the four S = 1, M = +-1 states in which one like
pair is a triplet and the other a singlet, at +-2 mu0.
"""

import pytest

from like_spin_oracle import census, like_spins, moment, spin_grouped
from spinzeeman import (
    Classification,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    couple,
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


def _ep_basis(n_e, n_p, mu0=1.0):
    """The ``ep`` basis of n_e electrons and n_p positrons, alternating
    e, p, ... with the unpaired sites last, and each state's doubled
    (S_e, S_p, S, M)."""
    species = ([Species.ELECTRON, Species.POSITRON] * min(n_e, n_p)
               + [Species.ELECTRON] * (n_e - n_p)
               + [Species.POSITRON] * (n_p - n_e))
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

