"""Killed-run trace prefixes of the live backend.

Companion of the artifact-level truncation tests in
``test_roundtrip.TestErrorPaths``: a live worker can be SIGKILLed at any
instant, so its shard is by construction a *prefix* of its history —
possibly with a torn final line — and the coordinator must still merge the
surviving records into a ``verify_trace``-clean, replayable v2 artifact.
Also home of the :class:`~repro.traceio.format.RunProvenance` round-trip
pins (the helper every traced driver now builds its header ``meta`` with).
"""

from __future__ import annotations

import pytest

from repro.live.merge import ordered_entries, replay_entries
from repro.live.shard import ShardWriter, read_shard
from repro.traceio import TraceReader, TraceWriter, verify_trace
from repro.traceio.format import RunProvenance


def _exchange(tmp_path):
    """Two shards of a short 2-process exchange (both still open)."""
    paths = [str(tmp_path / f"w{pid}.shard.jsonl") for pid in (0, 1)]
    w0 = ShardWriter(paths[0], pid=0, num_processes=2)
    w1 = ShardWriter(paths[1], pid=1, num_processes=2)
    w0.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
    w1.record_checkpoint(1, 0, (0, 1), forced=False, time=0.0)
    w0.record_send(0, 1, 1, 1.0)
    w1.merge_clock(w0.lamport)
    w1.record_receive(1, 1.6)
    w0.record_send(0, 1, 2, 2.0)
    w1.record_checkpoint(1, 1, (1, 2), forced=True, time=2.5)
    return paths, w0, w1


def _merge_to_artifact(tmp_path, shard_paths, name="merged.trace.jsonl"):
    shards = [read_shard(path) for path in shard_paths]
    out = str(tmp_path / name)
    writer = TraceWriter.scripted(out, shards[0].num_processes, workload="live-prefix")
    replay_entries(ordered_entries(shards), shards[0].num_processes, sink=writer)
    writer.seal()
    return out


class TestKilledShardPrefixes:
    def test_sigkilled_shard_merges_verify_clean(self, tmp_path):
        """No footer (the kill case): everything recorded merges cleanly."""
        paths, w0, w1 = _exchange(tmp_path)
        # Neither worker closed its shard — both SIGKILLed.
        artifact = _merge_to_artifact(tmp_path, paths)
        assert verify_trace(artifact) == []
        replayed = TraceReader(artifact).replay()
        assert replayed.recorder.log.total_events() == 6

    def test_torn_final_line_merges_verify_clean(self, tmp_path):
        """A kill mid-``write`` tears the last line; the prefix still merges."""
        paths, w0, w1 = _exchange(tmp_path)
        with open(paths[1], "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(paths[1], "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
        artifact = _merge_to_artifact(tmp_path, paths)
        assert verify_trace(artifact) == []
        # The torn record (p1's forced checkpoint) is gone; the rest is kept.
        replayed = TraceReader(artifact).replay()
        assert replayed.recorder.log.total_events() == 5

    def test_receive_without_durable_send_never_enters_artifact(self, tmp_path):
        """Defence in depth: the merge drops receives whose send is missing.

        The durable-send-before-transmit rule makes this unreachable in a
        real run, but the merge must stay clean even on a hand-damaged shard
        (the recorder's silent-ignore replay contract).
        """
        paths, w0, w1 = _exchange(tmp_path)
        w1.merge_clock(1000)
        w1.record_receive(999_999, 3.0)  # no such send anywhere
        artifact = _merge_to_artifact(tmp_path, paths)
        assert verify_trace(artifact) == []
        replayed = TraceReader(artifact).replay()
        assert replayed.recorder.log.total_events() == 6

    def test_prefix_supports_recovery_planning(self, tmp_path):
        """The coordinator plans a recovery from exactly these prefixes."""
        from repro.recovery.manager import RecoveryManager

        paths, w0, w1 = _exchange(tmp_path)
        shards = [read_shard(path) for path in paths]
        recorder = replay_entries(ordered_entries(shards), 2)
        plan = RecoveryManager().plan(recorder.knowledge_view(), [0])
        assert plan.rollback_for(0) is not None


class TestRunProvenanceRoundTrip:
    """`to_meta` and `from_meta` are inverses for every driver shape."""

    @pytest.mark.parametrize(
        "provenance",
        [
            RunProvenance.campaign_cell(
                campaign="paper-grid",
                cell_id="0123abcd",
                params={"collector": "rdt-lgc", "n": 8},
                cell_index=3,
            ),
            RunProvenance.campaign_cell(
                campaign="paper-grid", cell_id="0123abcd", params={"n": 8}
            ),
            RunProvenance.explorer(
                config={"num_processes": 2}, schedule=[["send", 0, 1]]
            ),
            RunProvenance.live_run(time_scale=0.02, processes=3, epochs=2),
        ],
    )
    def test_round_trip(self, provenance):
        recovered = RunProvenance.from_meta(provenance.to_meta())
        assert recovered is not None
        assert recovered.kind == provenance.kind
        for key, value in provenance.fields.items():
            if value is not None:
                assert recovered.fields[key] == value

    def test_unknown_meta_is_none(self):
        assert RunProvenance.from_meta({}) is None
        assert RunProvenance.from_meta({"notes": "hand-rolled"}) is None

    def test_live_header_from_meta(self, tmp_path):
        """A merged live artifact's header meta parses back as a live run."""
        meta = RunProvenance.live_run(time_scale=0.02, processes=2).to_meta()
        path = str(tmp_path / "p.trace.jsonl")
        writer = TraceWriter.scripted(path, 2, meta=meta)
        writer.seal()
        header = TraceReader(path).header()
        provenance = RunProvenance.from_meta(header["meta"])
        assert provenance is not None
        assert provenance.kind == "live"
        assert provenance.fields == {"time_scale": 0.02, "processes": 2}

    def test_campaign_meta_shape_is_flat(self):
        """Byte-compatibility pin: campaign meta keeps its historical keys."""
        meta = RunProvenance.campaign_cell(
            campaign="c", cell_id="x", params={"a": 1}, cell_index=0
        ).to_meta()
        assert meta == {
            "campaign": "c",
            "cell_id": "x",
            "params": {"a": 1},
            "cell_index": 0,
        }
