"""The per-state records: ``CoupledState`` and ``StateReport``.

Both are frozen dataclasses that keep their fields in slots, and ``couple``
and ``classify`` set those slots without running a constructor.  These
tests pin what that must not change: no field can be assigned, ``repr``
shows the public fields only, reports compare and hash by their fields,
and a copy or a pickle keeps every field, a state's ``vector`` too.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from spinzeeman import (
    Classification,
    CouplingTree,
    CoupledState,
    DegeneracySpec,
    SpinSystem,
    StateReport,
    classify,
    couple,
    full_transform,
    moment_matrix,
)

DIPOS = SpinSystem.dipositronium()
STATE_FIELDS = ("total_s", "m", "intermediates", "label", "system",
                "_columns", "_block", "_row")
REPORT_FIELDS = ("label", "classification", "moment", "linear_slope",
                 "quadratic_partners")


@pytest.fixture(scope="module")
def states():
    return couple(DIPOS, CouplingTree.like_pairs(DIPOS))


@pytest.fixture(scope="module")
def reports(states):
    matrix = moment_matrix(full_transform(states))
    return classify(matrix, DegeneracySpec.isolated(len(states))).states


def _assert_same_state(ours, theirs):
    for name in STATE_FIELDS:
        if name in ("_columns", "_block"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))
        else:
            assert getattr(ours, name) == getattr(theirs, name)
    assert np.array_equal(ours.vector, theirs.vector)
    assert ours.vector.tobytes() == theirs.vector.tobytes()


def test_records_keep_their_fields_in_slots(states, reports):
    assert CoupledState.__slots__ == STATE_FIELDS
    assert StateReport.__slots__ == REPORT_FIELDS
    for record in (*states, *reports):
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", STATE_FIELDS)
def test_a_state_refuses_to_assign_or_delete_a_field(states, name):
    state = states[3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(state, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(state, name)
    assert state.label == "|1,1[1,0]⟩" and state._row == 2


@pytest.mark.parametrize("name", REPORT_FIELDS)
def test_a_report_refuses_to_assign_or_delete_a_field(reports, name):
    report = reports[9]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(report, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(report, name)
    assert report.label == "|1,0[2,2]⟩"


def test_records_take_no_other_attribute(states, reports):
    for record, name in ((states[3], "vector"), (states[3], "other"),
                         (reports[9], "other")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert not hasattr(record, "other")


def test_record_reprs_are_pinned(states, reports):
    assert repr(states[1]) == (
        "CoupledState(total_s=2.0, m=1.0, intermediates=(((0, 2), 1.0), "
        "((1, 3), 1.0)), label='|2,1[2,2]⟩', system=SpinSystem(species=("
        "<Species.ELECTRON: 'electron'>, <Species.POSITRON: 'positron'>, "
        "<Species.ELECTRON: 'electron'>, <Species.POSITRON: 'positron'>), "
        "mu0=1.0))")
    assert repr(reports[9]) == (
        "StateReport(label='|1,0[2,2]⟩', classification=<Classification."
        "QUADRATIC: 'QUADRATIC'>, moment=0.0, linear_slope=0.0, "
        "quadratic_partners=('|2,0[2,2]⟩', '|0,0[2,2]⟩'))")


def test_reports_compare_and_hash_by_their_fields(reports):
    for report in reports:
        values = tuple(getattr(report, name) for name in REPORT_FIELDS)
        built = StateReport(*values)
        assert report == built and hash(report) == hash(built)
        assert hash(report) == hash(values)
    other = StateReport("|1,0[2,2]⟩", Classification.NONE, 0.0, 0.0, ())
    assert reports[9] != other
    assert reports[0] != reports[1]
    assert len({*reports, *reports}) == len(reports)


def test_states_compare_by_identity(states):
    state = states[0]
    assert state == state and hash(state) == hash(state)
    assert state != copy.copy(state)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_keep_every_field(states, reports, duplicate):
    for state in states:
        twin = duplicate(state)
        assert type(twin) is CoupledState and twin is not state
        _assert_same_state(twin, state)
    for report in reports:
        twin = duplicate(report)
        assert type(twin) is StateReport and twin is not report
        assert twin == report and hash(twin) == hash(report)
        assert repr(twin) == repr(report)


def test_a_shallow_copy_shares_the_sector_block(states):
    twin = copy.copy(states[5])
    assert twin._block is states[5]._block
    assert twin._columns is states[5]._columns
