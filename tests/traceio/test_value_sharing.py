"""A replayed or merged recorder keeps each stored-vector entry value once.

``TraceRecorder.record_checkpoint`` is the one door a stored vector enters a
recorder through, and it builds the stored tuple from the recorder's value
table: however many vectors hold an entry value, the recorder holds one int
object for it.  The JSON scanner makes a fresh int per number it reads, so
without the table a replayed trace keeps one object per entry above CPython's
small-int cache (256).  These tests hold the replay and the live shard merge
to that, on traces whose entries go well past the cache.
"""

from __future__ import annotations

import os

import pytest

from repro.live.merge import ordered_entries, replay_entries
from repro.live.shard import ShardWriter, read_shard
from repro.simulation.trace import TraceRecorder
from repro.traceio.reader import TraceReader
from repro.traceio.writer import TraceWriter

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")
GOLDEN_TRACES = sorted(name for name in os.listdir(GOLDEN_DIR) if name.endswith(".trace.jsonl"))

#: Far above the small-int cache, so only a shared table makes equal entries one object.
BASE = 10_000


def _entries(recorder: TraceRecorder):
    return [value for dv in recorder.recorded_checkpoint_dvs().values() for value in dv]


def assert_one_object_per_value(recorder: TraceRecorder) -> None:
    """Every distinct stored-vector entry value is one object in ``recorder``."""
    entries = _entries(recorder)
    assert entries
    assert len({id(value) for value in entries}) == len(set(entries))


def _scripted_vectors(num_processes: int, rounds: int):
    """``(pid, index, vector)`` of a round-robin checkpoint script with large entries.

    Each process's vector entry for another process repeats what that
    process stored last, so every value appears in several vectors.
    """
    last = [BASE] * num_processes
    script = []
    for index in range(rounds):
        for pid in range(num_processes):
            last[pid] = BASE + index * num_processes + pid
            script.append((pid, index, tuple(last)))
    return script


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_a_replayed_golden_trace_shares_its_entry_values(name):
    replayed = TraceReader(os.path.join(GOLDEN_DIR, name)).replay()
    assert_one_object_per_value(replayed.recorder)


def test_a_replayed_trace_with_large_entries_shares_them(tmp_path):
    path = str(tmp_path / "large.trace.jsonl")
    recorder = TraceRecorder(3)
    writer = TraceWriter.scripted(path, 3, seed=1)
    recorder.attach_sink(writer)
    for time, (pid, index, vector) in enumerate(_scripted_vectors(3, 20)):
        recorder.record_checkpoint(pid, index, vector, forced=False, time=float(time))
    writer.seal()
    replayed = TraceReader(path).replay()
    assert replayed.recorder.recorded_checkpoint_dvs() == recorder.recorded_checkpoint_dvs()
    assert_one_object_per_value(replayed.recorder)
    entries = _entries(replayed.recorder)
    # Non-trivial: many more entries than distinct values, all past the cache.
    assert len(entries) > 2 * len(set(entries)) and min(entries) > 256


def test_a_live_merged_recorder_shares_its_entry_values(tmp_path):
    writers = [
        ShardWriter(str(tmp_path / f"w{pid}.shard.jsonl"), pid=pid, num_processes=3)
        for pid in range(3)
    ]
    for time, (pid, index, vector) in enumerate(_scripted_vectors(3, 20)):
        writers[pid].record_checkpoint(pid, index, vector, forced=False, time=float(time))
    for writer in writers:
        writer.close()
    shards = [read_shard(str(tmp_path / f"w{pid}.shard.jsonl")) for pid in range(3)]
    merged = replay_entries(ordered_entries(shards), 3)
    assert len(merged.recorded_checkpoint_dvs()) == 60
    assert_one_object_per_value(merged)
    assert min(_entries(merged)) > 256
