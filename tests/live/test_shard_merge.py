"""Shard write/read and the shard → artifact merge pipeline."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.live.coordinator import LiveCoordinator, LiveOptions
from repro.live.merge import ordered_entries, replay_entries, restore_spec, shard_counters
from repro.live.shard import ShardWriter, read_shard
from repro.recovery.manager import RecoveryManager
from repro.simulation.runner import SimulationConfig
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import make_workload
from repro.traceio.format import TraceFormatError, TraceTruncatedError


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
        """The merge orders by the key, so a wrong type is refused where the
        shard is read; the merge collects the elimination's index for a
        respawn's restore, so a wrong elimination is refused where the merge
        applies it.
        Either names the shard's line."""
        path = str(tmp_path / "g.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2)
        writer.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        writer.close()
        with open(path, encoding="utf-8") as handle:
            header, checkpoint, footer = handle.read().splitlines()
        footer = footer.replace('"records":1', '"records":2')
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([header, checkpoint, line, footer]) + "\n")
        with pytest.raises(TraceFormatError, match=f"^{re.escape(path)}:3: "):
            replay_entries(ordered_entries([read_shard(path)]), 2)

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
        with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}:1: not a live"):
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
        plan = RecoveryManager().plan(recorder.knowledge_view(), [1])
        assert plan.recovery_line.indices[1] >= 0

    def test_a_mistyped_record_is_refused_naming_its_shard_entry(self, tmp_path):
        """The merge applies shard records through the trace applier, so a
        field of the wrong type is refused there, not recorded, naming the
        record's shard line."""
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        with open(paths[1], encoding="utf-8") as handle:
            text = handle.read()
        assert text.count('["r",1,2.0]') == 1
        with open(paths[1], "w", encoding="utf-8") as handle:
            handle.write(text.replace('["r",1,2.0]', '["r",1,"later"]'))
        entries = ordered_entries([read_shard(p) for p in paths])
        with pytest.raises(TraceFormatError, match=f"^{re.escape(paths[1])}:3: 'r' record"):
            replay_entries(entries, 2)

    def test_counters_cover_killed_incarnations(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w1.record_elimination(1, 0)
        w0.record_elimination(0, 0)  # a killed incarnation's eliminations count too
        w1.close()  # w0 left open: its process was SIGKILLed
        counters = shard_counters([read_shard(p) for p in paths])
        assert counters == {
            "sent": 1,
            "delivered": 1,
            "duplicates": 0,
            "basic_checkpoints": 2,
            "forced_checkpoints": 1,
            "eliminated": 2,
        }


class TestCoordinatorMerge:
    """The coordinator's merge reads ``ShardData.complete``: a SIGKILLed
    incarnation's shard may end anywhere, a cleanly stopped one's may not."""

    def _coordinator(self, tmp_path, paths, incarnations):
        config = SimulationConfig(
            num_processes=2, duration=1.0, workload=make_workload("uniform-random")
        )
        trace_path = str(tmp_path / "live.trace.jsonl")
        coordinator = LiveCoordinator(config, LiveOptions(), trace_path, str(tmp_path))
        coordinator._shard_paths = paths
        coordinator._incarnations = incarnations
        return coordinator, trace_path

    def test_a_stopped_worker_without_a_footer_is_refused(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        with open(paths[1], encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(paths[1], "w", encoding="utf-8") as handle:
            # w1's footer is missing, though its worker reported "final".
            handle.writelines(lines[:-1])
        coordinator, trace_path = self._coordinator(tmp_path, paths, {0: 0, 1: 0})
        with pytest.raises(
            TraceTruncatedError,
            match=f"^{re.escape(paths[1])}:4: no shard footer .* worker 1 reported a clean stop",
        ):
            coordinator._merge({0: {}, 1: {}})
        assert not os.path.exists(trace_path)

    def test_a_killed_incarnation_without_a_footer_is_merged(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        w0.close()
        w1.close()
        # Process 1 was SIGKILLed and respawned: only incarnation 1 is current.
        killed = str(tmp_path / "w1-i0.shard.jsonl")
        ShardWriter(killed, pid=1, num_processes=2, incarnation=0).close()
        with open(killed, encoding="utf-8") as handle:
            header = handle.readline()
        with open(killed, "w", encoding="utf-8") as handle:
            handle.write(header)  # all a SIGKILL right after the header leaves
        with open(paths[1], encoding="utf-8") as handle:
            current = handle.read().replace('"incarnation":0', '"incarnation":1')
        with open(paths[1], "w", encoding="utf-8") as handle:
            handle.write(current)
        coordinator, _ = self._coordinator(
            tmp_path, [paths[0], killed, paths[1]], {0: 0, 1: 1}
        )
        # Past the footer check, the merge wants the workers' reports.
        with pytest.raises(KeyError, match="retained_indices"):
            coordinator._merge({0: {}, 1: {}})


def _replayed(paths, plans={}):
    """The replay the coordinator runs at a crash: recorder and eliminated sets."""
    eliminated = [set(), set()]
    recorder = replay_entries(
        ordered_entries([read_shard(path) for path in paths]), 2,
        plans=plans, eliminated=eliminated,
    )
    return recorder, eliminated


class TestRestoreSpec:
    """A respawn's storage is the replayed pattern's checkpoints up to its
    rollback target, less the indices eliminated since their last store."""

    def test_stores_and_holes_come_from_the_replayed_pattern(self, tmp_path):
        paths = [str(tmp_path / f"w{pid}.shard.jsonl") for pid in (0, 1)]
        w0 = ShardWriter(paths[0], pid=0, num_processes=2)
        w1 = ShardWriter(paths[1], pid=1, num_processes=2)
        w0.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        w1.record_checkpoint(1, 0, (0, 1), forced=False, time=0.0)
        w0.record_checkpoint(0, 1, (2, 0), forced=False, time=1.0)
        w0.record_checkpoint(0, 2, (3, 0), forced=True, time=2)
        w0.record_elimination(0, 1)
        w0.record_checkpoint(0, 3, (4, 0), forced=False, time=3.5)
        w0.record_elimination(0, 2)  # above the target: not shipped
        recorder, eliminated = _replayed(paths)
        assert eliminated == [{1, 2}, set()]
        spec = restore_spec(recorder.ccp(), eliminated, 0, 2, (3, 1))
        assert spec == {
            "stores": [[0, [1, 0], False, 0.0], [1, [2, 0], False, 1.0], [2, [3, 0], True, 2]],
            "eliminated": [1],
            "rollback_index": 2,
            "last_interval_vector": [3, 1],
        }
        # The frame the coordinator sends carries the restore object as is.
        assert json.loads(json.dumps(spec)) == spec

    def test_a_checkpoint_the_shards_never_recorded_is_an_error(self, tmp_path):
        paths, w0, w1 = _write_pair(tmp_path)
        recorder, eliminated = _replayed(paths)
        with pytest.raises(RuntimeError, match=r"never recorded checkpoint s0\^1"):
            restore_spec(recorder.ccp(), eliminated, 0, 1, (1, 0))

    def test_an_index_rolled_back_and_stored_again_is_no_hole(self, tmp_path):
        paths = [str(tmp_path / f"w{pid}.shard.jsonl") for pid in (0, 1)]
        w0 = ShardWriter(paths[0], pid=0, num_processes=2)
        w1 = ShardWriter(paths[1], pid=1, num_processes=2)
        w0.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
        w1.record_checkpoint(1, 0, (0, 1), forced=False, time=0.0)
        w1.record_checkpoint(1, 1, (0, 2), forced=False, time=1.0)
        w0.record_send(0, 1, 7, 1.5)  # sent after s0^0: lost when p0 crashes
        w1.merge_clock(w0.lamport)
        w1.record_receive(7, 2.0)
        w1.record_checkpoint(1, 2, (1, 3), forced=False, time=3.0)
        w1.record_checkpoint(1, 3, (1, 4), forced=False, time=4.0)
        w1.record_elimination(1, 2)
        # p0 crashes: the orphan receive rolls p1 back to s1^1.
        recorder, _ = _replayed(paths)
        plan = RecoveryManager().plan(recorder.knowledge_view(), [0])
        assert plan.rollback_for(1).rollback_index == 1
        # Epoch 1: p1 stores index 2 (and 3) again, then crashes itself.
        w1.set_epoch(1, lamport_floor=w1.lamport + 1)
        w1.record_checkpoint(1, 2, (1, 3), forced=True, time=6.0)
        w1.record_checkpoint(1, 3, (1, 4), forced=False, time=7.0)
        recorder, eliminated = _replayed(paths, plans={0: plan})
        assert eliminated == [set(), set()]
        spec = restore_spec(recorder.ccp(), eliminated, 1, 3, (1, 4))
        assert spec["stores"] == [
            [0, [0, 1], False, 0.0],
            [1, [0, 2], False, 1.0],
            [2, [1, 3], True, 6.0],
            [3, [1, 4], False, 7.0],
        ]
        assert spec["eliminated"] == []
