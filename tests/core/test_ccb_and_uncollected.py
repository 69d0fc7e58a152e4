"""Unit tests for the CCB and the UC table (Algorithm 1)."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ccb import CheckpointControlBlock
from repro.core.uncollected import UncollectedTable


class TestCheckpointControlBlock:
    def test_initial_reference_count(self):
        ccb = CheckpointControlBlock(3)
        assert ccb.index == 3 and ccb.ref_count == 1

    def test_acquire_release_cycle(self):
        ccb = CheckpointControlBlock(0)
        ccb.acquire()
        assert not ccb.release()
        assert ccb.release()

    def test_release_below_zero_rejected(self):
        ccb = CheckpointControlBlock(0, ref_count=0)
        with pytest.raises(RuntimeError):
            ccb.release()

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            CheckpointControlBlock(-1)
        with pytest.raises(ValueError):
            CheckpointControlBlock(0, ref_count=-1)


class TestUncollectedTable:
    def test_requires_at_least_one_entry(self):
        with pytest.raises(ValueError):
            UncollectedTable(0)

    def test_new_ccb_and_view(self):
        table = UncollectedTable(3)
        table.new_ccb(0, 5)
        assert table.view() == (5, None, None)
        assert table.referenced_index(0) == 5
        assert table.referenced_indices() == {5}

    def test_link_shares_ccb(self):
        table = UncollectedTable(3)
        table.new_ccb(0, 2)
        table.link(1, 0)
        assert table.view() == (2, 2, None)
        assert table.reference_count(2) == 2

    def test_link_to_null_entry_rejected(self):
        table = UncollectedTable(2)
        with pytest.raises(RuntimeError):
            table.link(1, 0)

    def test_link_over_live_reference_rejected(self):
        table = UncollectedTable(2)
        table.new_ccb(0, 0)
        table.new_ccb(1, 1)
        with pytest.raises(RuntimeError):
            table.link(1, 0)

    def test_new_ccb_over_live_reference_rejected(self):
        table = UncollectedTable(2)
        table.new_ccb(0, 0)
        with pytest.raises(RuntimeError):
            table.new_ccb(0, 1)

    def test_release_eliminates_when_last_reference_drops(self):
        eliminated = []
        table = UncollectedTable(2, on_eliminate=eliminated.append)
        table.new_ccb(0, 4)
        assert table.release(0) == 4
        assert eliminated == [4]
        assert table.view() == (None, None)

    def test_release_keeps_checkpoint_with_remaining_references(self):
        eliminated = []
        table = UncollectedTable(2, on_eliminate=eliminated.append)
        table.new_ccb(0, 4)
        table.link(1, 0)
        assert table.release(0) is None
        assert eliminated == []
        assert table.view() == (None, 4)

    def test_release_of_null_entry_is_a_no_op(self):
        table = UncollectedTable(2)
        assert table.release(1) is None

    def test_eliminations_reach_the_callback_in_order(self):
        eliminated = []
        table = UncollectedTable(1, on_eliminate=eliminated.append)
        table.new_ccb(0, 0)
        table.release(0)
        table.new_ccb(0, 1)
        table.release(0)
        assert eliminated == [0, 1]


class TestRebuild:
    def test_rebuild_assigns_and_collects_unreferenced(self):
        eliminated = []
        table = UncollectedTable(3, on_eliminate=eliminated.append)
        table.new_ccb(0, 0)
        collected = table.rebuild({0: 2, 1: 2, 2: 5}, stored_indices=[1, 2, 5])
        assert collected == [1]
        assert eliminated == [1]
        assert table.view() == (2, 2, 5)
        assert table.reference_count(2) == 2

    def test_rebuild_with_empty_assignment_collects_everything(self):
        table = UncollectedTable(2)
        collected = table.rebuild({}, stored_indices=[0, 1, 2])
        assert collected == [0, 1, 2]
        assert table.view() == (None, None)

    def test_rebuild_rejects_unknown_checkpoint(self):
        table = UncollectedTable(2)
        with pytest.raises(KeyError):
            table.rebuild({0: 7}, stored_indices=[0, 1])


@st.composite
def _tables_and_receives(draw):
    """A recipe for a random ``UC`` table plus a receive's ``(updated, i)``.

    Entry ``j`` is ``Null``, a fresh CCB, or linked to an earlier live entry;
    some CCBs then lose references behind the table's back (the state in
    which a release too many is refused).
    """
    size = draw(st.integers(min_value=1, max_value=6))
    entries = []
    for j in range(size):
        live = [k for k, entry in enumerate(entries) if entry is not None]
        kinds = ["null", "new"] + (["link"] if live else [])
        kind = draw(st.sampled_from(kinds))
        entries.append(
            None if kind == "null" else "new" if kind == "new" else draw(st.sampled_from(live))
        )
    stolen = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=2))
    updated = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=8))
    i = draw(st.integers(min_value=0, max_value=size - 1))
    if draw(st.booleans()):
        # What a receive looks like in a run: UC[i] is live, not itself updated.
        entries[i] = entries[i] if entries[i] is not None else "new"
        stolen, updated = [], [j for j in updated if j != i]
    return entries, stolen, updated, i


def _build(entries, stolen):
    eliminated = []
    table = UncollectedTable(len(entries), on_eliminate=eliminated.append)
    blocks = {}
    for j, entry in enumerate(entries):
        if entry == "new":
            blocks[j] = table.new_ccb(j, 10 + j)
        elif entry is not None:
            table.link(j, entry)
            blocks[j] = blocks[entry]
    for j in stolen:
        if j in blocks and blocks[j].ref_count > 0:
            blocks[j].ref_count -= 1
    return table, blocks, eliminated


def _observed(table, blocks, eliminated, error):
    return {
        "view": table.view(),
        "ref_counts": {j: (ccb.index, ccb.ref_count) for j, ccb in blocks.items()},
        "eliminated": list(eliminated),
        "error": None if error is None else (type(error), str(error)),
    }


class TestRelink:
    @settings(max_examples=300, deadline=None)
    @given(_tables_and_receives())
    def test_relink_is_the_literal_release_then_link_sequence(self, recipe):
        entries, stolen, updated, i = recipe
        outcomes = []
        for literal in (True, False):
            table, blocks, eliminated = _build(entries, stolen)
            error = None
            try:
                if literal:
                    for j in updated:
                        table.release(j)
                        table.link(j, i)
                else:
                    table.relink(updated, i)
            except RuntimeError as raised:
                error = raised
            outcomes.append(_observed(table, blocks, eliminated, error))
        assert outcomes[0] == outcomes[1]

    def test_relink_repoints_and_eliminates_in_order(self):
        eliminated = []
        table = UncollectedTable(4, on_eliminate=eliminated.append)
        table.new_ccb(1, 3)
        table.new_ccb(2, 4)
        table.new_ccb(0, 7)
        table.relink([2, 1, 3], 0)
        assert table.view() == (7, 7, 7, 7)
        assert table.reference_count(7) == 4
        assert eliminated == [4, 3]

    def test_relink_to_a_null_entry_is_links_error(self):
        table = UncollectedTable(2)
        with pytest.raises(RuntimeError, match=r"link\(1, 0\) with UC\[0\] = Null"):
            table.relink([1], 0)

    def test_relink_refuses_a_release_too_many(self):
        table = UncollectedTable(2)
        table.new_ccb(0, 0)
        table.new_ccb(1, 1).release()
        with pytest.raises(RuntimeError, match="released more times than acquired"):
            table.relink([1], 0)
        assert table.view() == (0, 1)
