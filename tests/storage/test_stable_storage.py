"""Unit tests for the simulated stable storage."""

import pytest

from repro.storage.stable import StableStorage


class TestStore:
    def test_store_in_order(self):
        storage = StableStorage(0)
        storage.store(0, (0, 0))
        storage.store(1, (1, 0))
        assert storage.retained_indices() == [0, 1]

    def test_out_of_order_store_rejected(self):
        storage = StableStorage(0)
        storage.store(0, (0, 0))
        with pytest.raises(ValueError):
            storage.store(2, (0, 0))

    def test_record_fields(self):
        storage = StableStorage(3)
        record = storage.store(0, (1, 2), forced=True, time=4.5)
        assert record == (3, 0, (1, 2), True, 4.5)
        assert storage.get(0) is record

    def test_counters(self):
        storage = StableStorage(0)
        storage.store(0, (0,))
        storage.store(1, (1,))
        assert storage.retained_count() == 2
        assert storage.max_retained() == 2
        assert storage.last_index() == 1


class TestEliminate:
    def test_eliminate_removes_checkpoint(self):
        storage = StableStorage(0)
        storage.store(0, (0,))
        storage.store(1, (1,))
        storage.eliminate(0)
        assert storage.retained_indices() == [1]
        assert storage.total_eliminated() == 1
        assert not storage.contains(0)

    def test_eliminate_unknown_rejected(self):
        storage = StableStorage(0)
        with pytest.raises(KeyError):
            storage.eliminate(3)

    def test_get_after_eliminate_rejected(self):
        storage = StableStorage(0)
        storage.store(0, (0,))
        storage.eliminate(0)
        with pytest.raises(KeyError):
            storage.get(0)

    def test_max_retained_is_a_high_water_mark(self):
        storage = StableStorage(0)
        storage.store(0, (0,))
        storage.store(1, (1,))
        storage.eliminate(0)
        storage.store(2, (2,))
        assert storage.max_retained() == 2
        assert storage.retained_count() == 2


class TestRollback:
    def test_eliminate_after_rewinds_last_index(self):
        storage = StableStorage(0)
        for index in range(4):
            storage.store(index, (index,))
        removed = storage.eliminate_after(1)
        assert removed == [2, 3]
        assert storage.last_index() == 1
        # Indices are reused after a rollback, matching Algorithm 3.
        storage.store(2, (9,))
        assert storage.get(2).dependency_vector == (9,)

    def test_rolled_back_checkpoints_do_not_count_as_collected(self):
        storage = StableStorage(0)
        for index in range(3):
            storage.store(index, (index,))
        assert storage.eliminate_after(0) == [1, 2]
        assert storage.total_eliminated() == 0
        assert storage.retained_indices() == [0]

    def test_eliminate_after_with_gaps(self):
        storage = StableStorage(0)
        for index in range(5):
            storage.store(index, (index,))
        storage.eliminate(2)
        removed = storage.eliminate_after(1)
        assert removed == [3, 4]
        assert storage.retained_indices() == [0, 1]
