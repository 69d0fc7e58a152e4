"""Round-trip properties of the persistent trace format.

The central contract: replaying a persisted trace into a fresh
:class:`TraceRecorder` rebuilds the *identical* recorder — event log,
recorded dependency vectors, message intervals, CCP analyses and recovery
lines all byte-for-byte equal to the live run's — and a traced campaign can
be re-aggregated from its artifacts alone with byte-identical tables.
Exercised across random seeds × protocols × failure schedules, plus the
corrupt/truncated/version-mismatch error paths.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re

import pytest

from repro.causality.events import E_KIND
from repro.scenarios.campaign import (
    CampaignSpec,
    CollectorSpec,
    WorkloadSpec,
    aggregate_campaign,
    default_worker_id,
    run_campaign,
)
from repro.scenarios.experiments import random_run_config
from repro.simulation.runner import METRIC_NAMES, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.traceio import (
    TraceFormatError,
    TraceReader,
    TraceTruncatedError,
    TraceVersionError,
    TraceWriter,
    analysis_table,
    campaign_records_from_traces,
    metrics_from_record,
    result_to_record,
    verify_trace,
)
from repro.traceio.format import RunProvenance


def _traced_run(tmp_path, *, seed, protocol="fdas", crashes=0, **kwargs):
    """Run one simulation with trace capture; returns (runner, result, path)."""
    path = str(tmp_path / f"run_{protocol}_{seed}_{crashes}.trace.jsonl")
    config = dataclasses.replace(
        random_run_config(
            seed=seed,
            protocol=protocol,
            crashes=crashes,
            keep_final_ccp=False,
            **kwargs,
        ),
        trace_path=path,
    )
    runner = SimulationRunner(config)
    result = runner.run()
    return runner, result, path


def _unsafe_collector_spec(*, seeds) -> CampaignSpec:
    """The unsafe Manivannan–Singhal grid (window far below the actual
    checkpoint cadence, crash injection on) over the given seed indices."""
    return CampaignSpec(
        name="traceio-unsafe",
        num_processes=3,
        duration=60.0,
        collectors=(
            CollectorSpec.of(
                "manivannan-singhal",
                {"checkpoint_period": 4.0, "max_message_delay": 0.1},
            ),
        ),
        workloads=(WorkloadSpec.of("uniform-random"),),
        failure_counts=(2,),
        seeds=tuple(seeds),
    )


@functools.lru_cache(maxsize=1)
def _scan_unsafe_seeds(limit: int = 64):
    """``(passing, failing)`` seed indices of the unsafe-collector grid.

    Scans the grid's own derived seeds (each cell is materialised and run
    exactly as the campaign would run it) instead of trusting a magic seed
    window: whenever an RNG change re-rolls the network draws, the scan
    lands on a new tripping seed and the dependent tests stay meaningful —
    or fail loudly here if the failure mode itself disappeared.
    """
    passing = None
    failing = None
    for seed_index in range(limit):
        cell = _unsafe_collector_spec(seeds=(seed_index,)).cells()[0]
        try:
            SimulationRunner(cell.config()).run()
        except Exception:
            failing = failing if failing is not None else seed_index
        else:
            passing = passing if passing is not None else seed_index
        if passing is not None and failing is not None:
            return passing, failing
    raise AssertionError(
        f"range({limit}) holds no (passing, failing) seed pair for the unsafe "
        f"Manivannan-Singhal grid (found passing={passing}, failing={failing}); "
        f"the roundtrip failure-path tests would be vacuous"
    )


def find_failing_seed() -> int:
    """The first seed index whose cell trips the unsafe collector."""
    return _scan_unsafe_seeds()[1]


def find_passing_seed() -> int:
    """The first seed index whose unsafe-collector cell completes cleanly."""
    return _scan_unsafe_seeds()[0]


def _event_view(recorder: TraceRecorder):
    return [
        [
            e[E_KIND:] for e in recorder.log.history(pid)
        ]
        for pid in range(recorder.num_processes)
    ]


class TestRecorderRoundTrip:
    """Replayed recorder ≡ live recorder, across the parameter grid."""

    @pytest.mark.parametrize("protocol", ["fdas", "fdi", "cbr", "uncoordinated"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_event_log_and_dvs_roundtrip(self, tmp_path, protocol, seed):
        runner, _, path = _traced_run(tmp_path, seed=seed, protocol=protocol)
        replayed = TraceReader(path).replay()
        assert _event_view(replayed.recorder) == _event_view(runner.trace)
        assert (
            replayed.recorder.recorded_checkpoint_dvs()
            == runner.trace.recorded_checkpoint_dvs()
        )

    @pytest.mark.parametrize("seed", [1, 4, 11, 23])
    @pytest.mark.parametrize("crashes", [1, 2])
    def test_recovery_sessions_roundtrip(self, tmp_path, seed, crashes):
        """Recovery truncation is part of the trace: the replayed history is
        the post-rollback history, with the same dropped checkpoints."""
        runner, result, path = _traced_run(tmp_path, seed=seed, crashes=crashes)
        assert result.recoveries, "failure schedule must actually trigger recovery"
        replayed = TraceReader(path).replay()
        assert len(replayed.recovery_plans) == len(result.recoveries)
        assert _event_view(replayed.recorder) == _event_view(runner.trace)
        assert (
            replayed.recorder.recorded_checkpoint_dvs()
            == runner.trace.recorded_checkpoint_dvs()
        )

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("crashes", [0, 2])
    def test_analyses_are_byte_identical(self, tmp_path, seed, crashes):
        """CCP substrate and every shared analysis agree exactly."""
        runner, _, path = _traced_run(tmp_path, seed=seed, crashes=crashes)
        replayed = TraceReader(path).replay()
        live_ccp = runner.trace.ccp()
        replayed_ccp = replayed.recorder.ccp()
        assert replayed_ccp.messages() == live_ccp.messages()
        assert (
            replayed_ccp.zigzag.useless_checkpoints()
            == live_ccp.zigzag.useless_checkpoints()
        )
        assert (
            replayed_ccp.analysis_provider.theorem1_retained()
            == live_ccp.analysis_provider.theorem1_retained()
        )
        assert (
            replayed_ccp.analysis_provider.theorem2_retained()
            == live_ccp.analysis_provider.theorem2_retained()
        )
        for pid in live_ccp.processes:
            assert replayed_ccp.analysis_provider.recovery_line(
                frozenset((pid,))
            ) == live_ccp.analysis_provider.recovery_line(frozenset((pid,)))
        # The most end-to-end check: the rendered analysis table is
        # byte-identical between the live run and its replayed trace.
        live_table = analysis_table(runner.trace, title="T").render()
        replayed_table = analysis_table(replayed.recorder, title="T").render()
        assert replayed_table == live_table

    def test_the_replayed_pattern_determines_the_final_volatile_dvs(self, tmp_path):
        """The footer's ``final_volatile_dvs`` are the ground-truth vectors of
        the replayed pattern's volatile checkpoints: the pattern needs none."""
        runner, _, path = _traced_run(tmp_path, seed=5, crashes=1)
        replayed = TraceReader(path).replay()
        ccp = replayed.recorder.ccp()
        volatile = [ccp.dv(ccp.volatile_id(pid)) for pid in ccp.processes]
        assert volatile == [tuple(dv) for dv in replayed.footer["final_volatile_dvs"]]
        assert volatile == [node.current_dv for node in runner.nodes]

    def test_metrics_survive_the_footer(self, tmp_path):
        _, result, path = _traced_run(tmp_path, seed=3, crashes=1)
        replayed = TraceReader(path).replay()
        assert replayed.metrics == result.metrics_dict()
        assert list(replayed.metrics) == list(METRIC_NAMES)
        assert replayed.status == "ok"
        assert verify_trace(path) == []

    def test_metrics_from_record_mirrors_metrics_dict(self, tmp_path):
        """The footer's result record alone re-derives the exact metrics."""
        for seed, crashes in ((0, 0), (6, 2)):
            _, result, _ = _traced_run(tmp_path, seed=seed, crashes=crashes)
            record = json.loads(json.dumps(result_to_record(result)))
            assert metrics_from_record(record) == result.metrics_dict()

    def test_samples_stream_to_the_trace(self, tmp_path):
        runner, result, path = _traced_run(tmp_path, seed=0)
        replayed = TraceReader(path).replay()
        assert replayed.samples == [
            (s.time, s.retained_per_process) for s in result.samples
        ]


class TestScriptedCapture:
    """Recorders driven outside the runner persist and replay too."""

    def test_scripted_writer_roundtrip(self, tmp_path):
        path = str(tmp_path / "scripted.trace.jsonl")
        recorder = TraceRecorder(2)
        writer = TraceWriter.scripted(path, 2, seed=42)
        recorder.attach_sink(writer)
        recorder.record_checkpoint(0, 0, (0, 0), forced=False, time=1.0)
        recorder.record_checkpoint(1, 0, (0, 0), forced=False, time=2.0)
        recorder.record_send(0, 1, 0, 3.0)
        recorder.record_receive(0, 4.0)
        recorder.record_internal(1, 5.0)
        recorder.record_checkpoint(1, 1, (1, 1), forced=True, time=6.0)
        writer.seal()
        replayed = TraceReader(path).replay()
        assert _event_view(replayed.recorder) == _event_view(recorder)
        assert replayed.status == "ok"
        assert replayed.metrics is None
        assert verify_trace(path) == []


class TestCampaignRoundTrip:
    """A traced sweep re-aggregates byte-identically from its artifacts."""

    @pytest.fixture(scope="class")
    def tiny_spec(self):
        return CampaignSpec(
            name="traceio-tiny",
            num_processes=3,
            duration=25.0,
            collectors=(
                CollectorSpec.of("rdt-lgc"),
                CollectorSpec.of("all-process-line", {"period": 10.0}),
            ),
            workloads=(WorkloadSpec.of("uniform-random"),),
            failure_counts=(0, 1),
            seeds=(0, 1),
        )

    def test_aggregates_are_byte_identical(self, tmp_path, tiny_spec):
        traces = str(tmp_path / "traces")
        run = run_campaign(tiny_spec, trace_dir=traces)
        live = aggregate_campaign(run.records)
        records = campaign_records_from_traces(traces)
        assert [r["cell_id"] for r in records] == [
            r["cell_id"] for r in run.records
        ]
        replayed = aggregate_campaign(records)
        assert replayed.to_csv() == live.to_csv()
        assert replayed.to_json() == live.to_json()

    def test_traced_cells_carry_their_lease_provenance(self, tmp_path, tiny_spec):
        # Every executed cell runs under a lease, in-process as in a fabric
        # worker: the header names the worker and attempt, beside (never in)
        # the identity fields.
        traces = str(tmp_path / "traces")
        run = run_campaign(tiny_spec, trace_dir=traces)
        for index, record in enumerate(run.records):
            header, _ = TraceReader(os.path.join(traces, record["trace"])).summary()
            meta = header["meta"]
            assert (meta["worker"], meta["attempt"]) == (default_worker_id(), 1)
            identity = RunProvenance.from_meta(meta).fields
            assert identity == {
                "campaign": tiny_spec.name, "cell_id": record["cell_id"],
                "params": record["params"], "cell_index": index,
            }

    def test_traced_and_untraced_sweeps_agree(self, tmp_path, tiny_spec):
        """Trace persistence must not perturb the simulation."""
        traced = run_campaign(tiny_spec, trace_dir=str(tmp_path / "traces2"))
        untraced = run_campaign(tiny_spec)
        for a, b in zip(traced.records, untraced.records):
            assert a["cell_id"] == b["cell_id"]
            assert a["metrics"] == b["metrics"]

    def test_failed_cells_leave_aborted_but_replayable_traces(self, tmp_path):
        # Scanned, not hard-coded: a magic seed window silently goes vacuous
        # whenever seeded network draws re-roll (it already happened once,
        # with PR 4's per-link streams).  find_failing_seed() re-derives a
        # tripping grid point — and *fails* if none exists in the scan range.
        spec = _unsafe_collector_spec(
            seeds=tuple(sorted({find_passing_seed(), find_failing_seed()}))
        )
        traces = str(tmp_path / "traces")
        run = run_campaign(spec, trace_dir=traces)
        failed = run.failed_records
        assert failed, "find_failing_seed() returned a seed that did not fail"
        records = {r["cell_id"]: r for r in campaign_records_from_traces(traces)}
        for record in failed:
            replayed_record = records[record["cell_id"]]
            assert replayed_record["status"] == "failed"
            # The aborted trace still replays up to the failure point.
            replayed = TraceReader(
                os.path.join(traces, record["trace"])
            ).replay()
            assert replayed.status == "aborted"
            assert replayed.recorder.log.total_events() > 0
        # Aggregation from traces matches live aggregation (failed counts too).
        live = aggregate_campaign(run.records)
        replayed_summary = aggregate_campaign(
            campaign_records_from_traces(traces)
        )
        assert replayed_summary.to_csv() == live.to_csv()


class TestErrorPaths:
    """Corrupt, truncated and version-mismatched traces are rejected loudly."""

    @pytest.fixture
    def trace_path(self, tmp_path):
        _, _, path = _traced_run(tmp_path, seed=1, crashes=1)
        return path

    def test_missing_footer_is_truncation(self, trace_path):
        lines = open(trace_path, encoding="utf-8").readlines()
        open(trace_path, "w", encoding="utf-8").writelines(lines[:-1])
        with pytest.raises(TraceTruncatedError):
            TraceReader(trace_path).replay()
        replayed = TraceReader(trace_path).replay(allow_partial=True)
        assert replayed.truncated
        assert replayed.status == "truncated"
        assert replayed.recorder.log.total_events() > 0
        assert verify_trace(trace_path) == [
            f"{trace_path}: trace is truncated (no footer)"
        ]

    def test_half_written_final_line_is_truncation(self, trace_path):
        content = open(trace_path, encoding="utf-8").read()
        open(trace_path, "w", encoding="utf-8").write(content[: len(content) // 2])
        with pytest.raises(TraceTruncatedError):
            TraceReader(trace_path).replay()
        assert TraceReader(trace_path).replay(allow_partial=True).truncated

    def test_dropped_interior_records_fail_the_count_check(self, trace_path):
        lines = open(trace_path, encoding="utf-8").readlines()
        body = [line for line in lines[1:-1]]
        # Removing a trailing sample keeps the stream replayable but makes
        # the footer counts lie — exactly what the counts are there to catch.
        sample_lines = [i for i, line in enumerate(body) if line.startswith('["S"')]
        del body[sample_lines[-1]]
        open(trace_path, "w", encoding="utf-8").writelines(
            [lines[0]] + body + [lines[-1]]
        )
        with pytest.raises(TraceTruncatedError, match="records are missing"):
            TraceReader(trace_path).replay()
        # Partial mode replays what is there and marks the damage instead;
        # verify_trace reports it as a violation rather than raising.
        replayed = TraceReader(trace_path).replay(allow_partial=True)
        assert replayed.truncated
        assert any("counts disagree" in v for v in verify_trace(trace_path))

    def test_interior_corruption_is_a_format_error(self, trace_path):
        lines = open(trace_path, encoding="utf-8").readlines()
        lines[len(lines) // 2] = "{not json}\n"
        open(trace_path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(TraceFormatError):
            TraceReader(trace_path).replay()
        # Structural damage is fatal even in partial mode.
        with pytest.raises(TraceFormatError):
            TraceReader(trace_path).replay(allow_partial=True)

    def test_summary_refuses_a_garbled_line_that_is_not_last(self, tmp_path):
        """summary() follows replay's torn-line rule: an unparseable footer
        is a killed writer's tail only when no line follows it."""
        trace = tmp_path / "garbled-footer.trace.jsonl"
        path = str(trace)
        writer = TraceWriter.scripted(path, 2)
        writer.on_send(0, 1, 1, 0.5)
        writer.seal()
        header, send, footer = trace.read_text(encoding="utf-8").splitlines()
        torn = footer[: len(footer) // 2]
        trace.write_text("\n".join([header, send, torn]) + "\n", encoding="utf-8")
        assert TraceReader(path).summary()[1] is None
        trace.write_text("\n".join([header, send, torn, send]) + "\n", encoding="utf-8")
        for read in (TraceReader(path).summary, TraceReader(path).replay):
            with pytest.raises(TraceFormatError, match=f"^{re.escape(path)}:3: unparseable line"):
                read()

    def test_unknown_tag_is_a_format_error(self, trace_path):
        lines = open(trace_path, encoding="utf-8").readlines()
        lines.insert(2, '["Z",1,2]\n')
        open(trace_path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(TraceFormatError, match="unknown record tag"):
            TraceReader(trace_path).replay()

    def test_newer_version_is_refused(self, trace_path):
        lines = open(trace_path, encoding="utf-8").readlines()
        header = json.loads(lines[0])
        header["version"] = 999
        lines[0] = json.dumps(header) + "\n"
        open(trace_path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(TraceVersionError):
            TraceReader(trace_path).replay()

    def test_failed_runner_construction_seals_the_trace(self, tmp_path):
        """A cell that cannot even be built leaves an aborted (not a
        header-only, footer-less) artifact."""
        path = str(tmp_path / "broken.trace.jsonl")
        # A collector's options are checked by building it, which
        # SimulationConfig leaves to the nodes; an unknown name it refuses.
        config = dataclasses.replace(
            random_run_config(seed=0, keep_final_ccp=False),
            collector_options={"no_such_option": 1},
            trace_path=path,
        )
        with pytest.raises(Exception, match="no_such_option"):
            SimulationRunner(config)
        replayed = TraceReader(path).replay()
        assert replayed.status == "aborted"
        assert "no_such_option" in replayed.footer["error"]

    def test_not_a_trace_file(self, tmp_path):
        path = str(tmp_path / "not_a_trace.jsonl")
        open(path, "w", encoding="utf-8").write('{"cell_id": "abc"}\n')
        with pytest.raises(TraceFormatError):
            TraceReader(path).replay()

    def test_record_inconsistent_with_history(self, trace_path):
        """A structurally valid record the history cannot accept is caught."""
        lines = open(trace_path, encoding="utf-8").readlines()
        # Receive of a message that was never sent.
        lines.insert(1, '["r",999999,0.5]\n')
        open(trace_path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(TraceTruncatedError):
            # The bogus receive is silently ignorable by the recorder (guard
            # for dropped messages), so the failure surfaces as an event
            # count mismatch instead of slipping through unnoticed.
            TraceReader(trace_path).replay()
