"""Shard write/read and the shard → artifact merge pipeline."""

from __future__ import annotations

import json
import re

import pytest

from repro.live.merge import (
    StorageMirror,
    ordered_entries,
    replay_entries,
    shard_counters,
)
from repro.live.shard import ShardWriter, read_shard
from repro.recovery.manager import RecoveryManager
from repro.simulation.trace import TraceRecorder
from repro.traceio.format import TraceFormatError


def _write_pair(tmp_path):
    """Two shards of a two-process exchange: 0 sends m1 to 1."""
    paths = [str(tmp_path / f"w{pid}.shard.jsonl") for pid in (0, 1)]
    w0 = ShardWriter(paths[0], pid=0, num_processes=2)
    w1 = ShardWriter(paths[1], pid=1, num_processes=2)
    w0.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
    w1.record_checkpoint(1, 0, (0, 1), forced=False, time=0.0)
    w0.record_send(0, 1, 1, 1.0)
    # The receiver's clock merges the sender's, as the transport does on
    # every datagram, so the receive sorts after the send globally.
    w1.merge_clock(w0.lamport)
    w1.record_receive(1, 2.0)
    w1.record_checkpoint(1, 1, (1, 2), forced=True, time=2.5)
    return paths, w0, w1


class TestShardRoundTrip:
    def test_complete_shard(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        s0, s1 = read_shard(paths[0]), read_shard(paths[1])
        assert s0.complete and s1.complete
        assert s0.pid == 0 and s1.pid == 1
        assert [e.record[0] for e in s0.entries] == ["c", "s"]
        assert [e.record[0] for e in s1.entries] == ["c", "r", "c"]

    def test_killed_writer_leaves_readable_prefix(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        # No close(): the SIGKILL case — no footer, everything recorded stays.
        s0 = read_shard(paths[0])
        assert not s0.complete
        assert len(s0.entries) == 2

    def test_torn_final_line_tolerated(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        with open(paths[0], "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        torn = "\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]])
        with open(paths[0], "w", encoding="utf-8") as handle:
            handle.write(torn)
        shard = read_shard(paths[0])
        assert not shard.complete
        assert len(shard.entries) == 1  # the torn record is dropped

    def test_elimination_records_round_trip(self, tmp_path):
        path = str(tmp_path / "e.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2)
        writer.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        writer.record_elimination(0, 0)
        writer.close()
        shard = read_shard(path)
        assert [e.record[0] for e in shard.entries] == ["c", "e"]

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param('[0,2,["e","0",0]]', id="elimination-pid-as-string"),
            pytest.param('[0,2,["e",1,0]]', id="elimination-of-another-process"),
            pytest.param('[0,2,["e",9,0]]', id="elimination-pid-outside-the-run"),
            pytest.param('[0,2,["e",0,"0"]]', id="elimination-index-as-string"),
            pytest.param('[0,2,["e",0,-1]]', id="elimination-negative-index"),
            pytest.param('[0,2,["e",0,true]]', id="elimination-index-as-bool"),
            pytest.param('["5",2,["i",0,1.0]]', id="epoch-as-string"),
            pytest.param('[1.7,2,["i",0,1.0]]', id="epoch-as-float"),
            pytest.param('[true,2,["i",0,1.0]]', id="epoch-as-bool"),
            pytest.param('[0,"2",["i",0,1.0]]', id="lamport-as-string"),
            pytest.param('[0,-2,["i",0,1.0]]', id="lamport-negative"),
        ],
    )
    def test_a_mistyped_merge_key_or_elimination_is_refused(self, tmp_path, line):
        """The merge orders by these fields and the storage mirror discards
        by the elimination's index, so a wrong type is refused where it is
        read, naming its line."""
        path = str(tmp_path / "g.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2)
        writer.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        writer.close()
        with open(path, encoding="utf-8") as handle:
            header, checkpoint, footer = handle.read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([header, checkpoint, line, footer]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:3: "):
            read_shard(path)

    def test_lamport_monotone_and_epoch_stamped(self, tmp_path):
        path = str(tmp_path / "l.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2, lamport=10)
        writer.record_internal(0, 0.5)
        writer.set_epoch(1, lamport_floor=50)
        writer.record_internal(0, 1.5)
        writer.close()
        entries = read_shard(path).entries
        assert [(e.epoch, e.lamport) for e in entries] == [(0, 11), (1, 51)]

    def test_rejects_non_shard_file(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text(json.dumps({"format": "repro-trace"}) + "\n")
        with pytest.raises(ValueError):
            read_shard(str(path))


class TestMerge:
    def test_global_order_is_causal(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        entries = ordered_entries([read_shard(p) for p in paths])
        tags = [e.record[0] for e in entries]
        # The send must precede its receive in the merged order.
        assert tags.index("s") < tags.index("r")

    def test_replay_builds_consistent_recorder(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        recorder = replay_entries(
            ordered_entries([read_shard(p) for p in paths]), 2
        )
        assert isinstance(recorder, TraceRecorder)
        assert recorder.log.total_events() == 5
        ccp = recorder.ccp(volatile_dvs={0: (2, 0), 1: (1, 3)})
        plan = RecoveryManager().plan(ccp, [1])
        assert plan.recovery_line.indices[1] >= 0

    def test_a_mistyped_record_is_refused_naming_its_shard_entry(self, tmp_path):
        """The merge applies shard records through the trace applier, so a
        field of the wrong type is refused there, not recorded."""
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        with open(paths[1], encoding="utf-8") as handle:
            text = handle.read()
        assert text.count('["r",1,2.0]') == 1
        with open(paths[1], "w", encoding="utf-8") as handle:
            handle.write(text.replace('["r",1,2.0]', '["r",1,"later"]'))
        entries = ordered_entries([read_shard(p) for p in paths])
        with pytest.raises(TraceFormatError, match="^shard record 1 of process 1: 'r' record"):
            replay_entries(entries, 2)

    def test_counters_cover_killed_incarnations(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w1.close()  # w0 left open: its process was SIGKILLed
        counters = shard_counters([read_shard(p) for p in paths])
        assert counters == {
            "sent": 1,
            "delivered": 1,
            "duplicates": 0,
            "basic_checkpoints": 2,
            "forced_checkpoints": 1,
        }


class TestStorageMirror:
    def test_restore_spec_reconstructs_storage(self):
        mirror = StorageMirror(2)
        mirror.apply_store(0, 0, (1, 0), False, 0.0)
        mirror.apply_store(0, 1, (2, 0), False, 1.0)
        mirror.apply_store(0, 2, (3, 1), True, 2.0)
        mirror.apply_elimination(0, 1)
        spec = mirror.restore_spec(0, 2, (3, 1))
        assert [s[0] for s in spec["stores"]] == [0, 1, 2]
        assert spec["eliminated"] == [1]
        assert spec["rollback_index"] == 2
        assert spec["last_interval_vector"] == [3, 1]

    def test_missing_checkpoint_is_an_error(self):
        mirror = StorageMirror(2)
        mirror.apply_store(0, 0, (1, 0), False, 0.0)
        with pytest.raises(RuntimeError):
            mirror.restore_spec(0, 1, (1, 0))

    def test_plan_truncates_retained(self):
        mirror = StorageMirror(2)
        for index in range(4):
            mirror.apply_store(1, index, (0, index + 1), False, float(index))
        ccp_recorder = TraceRecorder(2)
        for index in range(4):
            ccp_recorder.record_checkpoint(
                1, index, (0, index + 1), forced=False, time=float(index)
            )
        ccp_recorder.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        plan = RecoveryManager().plan(
            ccp_recorder.ccp(volatile_dvs={0: (1, 0), 1: (0, 5)}), [1]
        )
        mirror.apply_plan(plan)
        rollback = plan.rollback_for(1)
        assert rollback is not None
        assert max(mirror.retained[1]) == rollback.rollback_index
