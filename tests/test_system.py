import re

import numpy as np
import pytest

from spinzeeman import (
    CouplingTree,
    DegeneracySpec,
    Species,
    SpinSystem,
    classify,
    couple,
    full_transform,
    moment_matrix,
)
from spinzeeman.system import _bit_table, _projections


def test_dipositronium_preset():
    system = SpinSystem.dipositronium()
    assert system.n == 4
    assert system.dimension == 16
    assert system.names == ("e1", "p1", "e2", "p2")
    assert system.moment_signs() == (-1, 1, -1, 1)
    assert system.mu0 == 1.0


def test_positronium_preset():
    system = SpinSystem.positronium(mu0=2.5)
    assert system.names == ("e1", "p1")
    assert system.mu0 == 2.5


def test_species_signs():
    assert Species.ELECTRON.moment_sign == -1
    assert Species.POSITRON.moment_sign == +1
    system = SpinSystem((Species.POSITRON, Species.ELECTRON))
    assert system.moment_signs() == (+1, -1)
    assert system.species_indices(Species.ELECTRON) == (1,)


def test_index_validation():
    with pytest.raises(ValueError):
        SpinSystem(())


@pytest.mark.parametrize("mu0", [0.0, -0.0])
def test_zero_mu0_is_rejected(mu0):
    # moments are computed in units of mu0, so a zero unit would classify
    # 4 LINEAR / 7 QUADRATIC / 5 NONE with every moment zero
    message = re.escape(f"mu0 must be nonzero; mu0={mu0!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpinSystem.dipositronium(mu0)
    # a subnormal unit is a unit like any other
    assert SpinSystem.dipositronium(5e-324).mu0 == 5e-324


@pytest.mark.parametrize("given", ["2", np.float32(0.1)])
def test_mu0_is_kept_as_the_float_it_was_checked_as(given):
    # kept as given, "2" made classify fail on "can't multiply sequence by
    # non-int of type 'float'", and a float32 unit gave float32 moments
    system = SpinSystem.dipositronium(given)
    assert type(system.mu0) is float and system.mu0 == float(given)
    reports = []
    for mu0 in (given, float(given)):
        system = SpinSystem.dipositronium(mu0)
        states = couple(system, CouplingTree.like_pairs(system))
        reports.append(classify(moment_matrix(full_transform(states)),
                                DegeneracySpec.isolated(len(states))).states)
    assert reports[0] == reports[1]
    assert all(type(state.moment) is float for state in reports[0])


def test_mu0_that_overflows_a_float_is_rejected():
    # float() raises OverflowError here; it is reported as a bad mu0
    message = re.escape(f"mu0 must convert to a float; mu0={10**400!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpinSystem.dipositronium(10**400)
    for bad in ("two", 1j, None):
        with pytest.raises(ValueError, match="^mu0 must convert to a float"):
            SpinSystem.dipositronium(bad)


def test_sites_must_be_species():
    # a name, not a Species, would otherwise fail only on a later read
    with pytest.raises(ValueError, match=(
            "^site 'e' is not a Species; read names with species_from_name$")):
        SpinSystem.from_species(["e", "p"])
    with pytest.raises(ValueError, match="^site 1 is not a Species"):
        SpinSystem((Species.ELECTRON, 1))


def test_species_are_held_as_a_tuple():
    listed = SpinSystem([Species.ELECTRON, Species.POSITRON])
    assert type(listed.species) is tuple
    assert listed == SpinSystem((Species.ELECTRON, Species.POSITRON))
    assert hash(listed) == hash(SpinSystem.positronium())


def test_size_cap():
    species = (Species.ELECTRON,) * 13
    with pytest.raises(ValueError, match="12"):
        SpinSystem.from_species(species)
    SpinSystem.from_species((Species.ELECTRON,) * 12)  # boundary accepted


def _columns(indices):
    """The column labels of the given product indices in a full transform."""
    system = SpinSystem.from_species((Species.ELECTRON,) * 4)
    tree = CouplingTree.from_nested(((0, 1), (2, 3)))
    labels = full_transform(couple(system, tree)).column_labels
    return tuple(labels[k] for k in indices)


def test_product_state_ordering():
    # leftmost particle is the most significant bit; bit 1 means down
    assert _bit_table(4)[1].tolist() == [0, 0, 0, 1]
    assert _columns([1]) == ("|↑↑↑↓⟩",)
    assert _projections(4)[1] == 1.0

    assert _bit_table(4)[8].tolist() == [1, 0, 0, 0]
    assert _columns([8]) == ("|↓↑↑↑⟩",)
    assert _projections(4)[8] == 1.0


@pytest.mark.parametrize("index", range(16))
def test_product_state_round_trip(index):
    bits = _bit_table(4)[index]
    assert int(bits @ [8, 4, 2, 1]) == index
    arrows = "".join("↓" if b else "↑" for b in bits.tolist())
    assert _columns([index]) == (f"|{arrows}⟩",)


def test_product_state_m_counts():
    assert _projections(4)[0b1010] == 0.0
    assert _projections(4)[0b1111] == -2.0
    assert _projections(3)[0b000] == 1.5


def test_bit_table_is_built_once_per_n_and_read_only():
    table = _bit_table(5)
    assert _bit_table(5) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    assert _bit_table(5)[0].tolist() == [0] * 5
