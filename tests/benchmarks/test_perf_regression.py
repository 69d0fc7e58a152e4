"""Tier-1 smoke wiring for the perf-regression checker.

Runs :mod:`benchmarks.check_regression` in smoke mode (only the smoke-sized
sweep configurations, ratio comparison — hardware independent) against the
committed ``BENCH_perf.json``, and sanity-checks the committed document
itself: the headline acceptance row (8 processes / 2000 messages at >= 10x
over the brute-force reference), the datacenter-tier latency row (64
processes / 10^5 messages under 50 ms per instant), the medium-tier memory
section, the fresh medium-tier memory gate (peak traced bytes must stay
within 20% of the committed baseline), the
recovery-session scaling gate (a session may cost at most 2x more after a
4x longer warm-up history), the recording-path gate (executed lines per
recorded send/receive/checkpoint under an absolute ceiling), the
message-path gate (executed lines of a whole unread run per application
message, untraced and traced), the held-bytes gate (bytes an unread
``run_simulation`` still holds per application message when its engine
stops), the link-bytes gate (bytes a 64-process ``LinkFates`` holds per
opened link), the trace-codec gate (executed lines per
trace record written and per trace line read back, under one ceiling), the
history-tracking gate (GC-tracked objects a held replay adds per record), the
replay-bytes gate (bytes a held replay keeps per record), the
retained-set gate (executed lines per ``(i, f)`` pair of a Theorem-1/2
retained set), the store-cost gate (SQLite connections opened per stored
sweep and SQL statements per completed cell), the explorer gate
(executed lines per explorer execution on a fixed exhaustive walk) and the
fuzzer gate (executed lines per fuzz execution on a fixed in-memory run).
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")


@pytest.fixture(scope="module")
def committed_document():
    if not os.path.exists(BENCH_PATH):
        pytest.skip("no committed BENCH_perf.json (fresh checkout before first sweep)")
    with open(BENCH_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestCommittedBenchDocument:
    def test_rows_are_well_formed(self, committed_document):
        rows = committed_document["rows"]
        assert rows
        for row in rows:
            assert row["kernel"] == "zigzag-blocked-bitset+incremental-ccp"
            assert row["speedup"] > 0
            assert row["new_per_instant_s"] > 0
            assert row["old_per_instant_s"] > 0
            # A measured old-path mean needs >= 3 samples to be a baseline;
            # anything else must say it is an extrapolation, explicitly.
            if row["old_extrapolated"]:
                assert "old_extrapolation_basis" in row
            else:
                assert row["old_instants_measured"] >= 3

    def test_headline_configuration_meets_speedup_floor(self, committed_document):
        headline = [
            row
            for row in committed_document["rows"]
            if row["processes"] == 8 and row["messages"] >= 2000
        ]
        assert headline, "sweep must include the 8-process / >=2000-message row"
        assert all(row["speedup"] >= 10.0 for row in headline)

    def test_large_tier_rows_time_the_whole_log_and_are_extrapolated(self, committed_document):
        large = [
            row
            for row in committed_document["rows"]
            if row["processes"] >= 32 and row["messages"] >= 20000
        ]
        assert large, "sweep must include the datacenter tier"
        for row in large:
            assert row["old_extrapolated"] is True
            # The recorder keeps every event: a send per message, a receive
            # per delivered one, a checkpoint event per stable checkpoint.
            assert row["log_events"] > row["messages"] + row["stable_checkpoints"]
            assert set(row["final_suite"]) == {"retained_t1", "retained_t2", "line_total"}

    def test_committed_document_gates_pass(self, committed_document):
        """The static acceptance gates over the committed document itself."""
        from benchmarks.check_regression import check_committed_document

        assert check_committed_document(BENCH_PATH) == []


def test_smoke_regression_check_passes(committed_document):
    """The live kernel must not have regressed against the committed baseline.

    Ratio mode only (kernel vs brute-force measured seconds apart in this
    process), so the check is meaningful on any hardware; the generous
    threshold keeps tier-1 robust to noisy CI boxes while still catching a
    genuine kernel regression, which shows up as an order-of-magnitude shift.
    The campaign gate is skipped here — the dedicated test below runs it once
    with clear failure attribution, instead of paying for the sweep twice.
    The memory gate (tracemalloc-based, hardware independent) runs as part of
    this check: a medium-tier run whose peak grows more than 20% over the
    committed baseline fails tier-1.  So does the recovery-session scaling
    gate (a ratio of two executed-line counts, a function of the seed alone):
    replaying or rescanning the history per session reads ~3.6x against its
    2x ceiling, and the violation printed on stderr names it.  The
    recording-path, message-path (untraced and traced), held-bytes,
    released-history, trace-codec, replay-bytes, retained-set, store-cost,
    explorer and fuzzer gates run here too and have their own tests below.
    """
    from benchmarks.check_regression import main

    assert main(["--smoke", "--threshold", "0.5", "--skip-campaign"]) == 0


def test_recording_path_stays_under_its_line_ceiling():
    """One cheap record per event, one per message state, each fact kept once.

    An executed-line count per recorded occurrence (a function of the seed
    alone); the recorder with shadow message tables and dataclass records
    this gate was added against reads 1.7x the ceiling.
    """
    from benchmarks.check_regression import check_recording_path_cost

    assert check_recording_path_cost() == []
    (violation,) = check_recording_path_cost(ceiling=1.0)  # the gate can fire
    assert "TraceRecorder.record_*" in violation


def _read_every_runner_from_construction(monkeypatch):
    """Every ``SimulationRunner`` built from now on has its recorder read at once."""
    from repro.simulation.runner import SimulationRunner

    build = SimulationRunner.__init__

    def build_and_read(runner, config):
        build(runner, config)
        runner.trace

    monkeypatch.setattr(SimulationRunner, "__init__", build_and_read)


def test_message_path_stays_under_its_line_ceiling(monkeypatch):
    """An unread run costs its middleware: it does not build a log nobody asked for.

    An executed-line count of the whole ``runner.run()`` per application
    message (a function of the seed alone).  The gate can fire: a run whose
    recorder is read from construction builds its log as it happens — an
    ``Event``, a ``Message`` and a history entry per occurrence, what every
    run did on the runner this gate was added against, at 355.6 lines per
    message — and the violation names the path.  (An unread run reads 228.2
    under a ceiling of 247.0; a run read from construction 267.1.)
    """
    from benchmarks.check_regression import check_message_path_cost

    assert check_message_path_cost() == []
    _read_every_runner_from_construction(monkeypatch)
    (violation,) = check_message_path_cost()
    assert "builds its log again" in violation


def test_traced_message_path_stays_under_its_line_ceiling(monkeypatch):
    """A trace file is written from the occurrences: it does not build the log.

    The message-path count on the same run streaming its trace (a function
    of the seed alone).  The gate can fire: a traced run whose recorder is
    read from construction builds and validates the log only to forward each
    occurrence to the writer — what every traced run did on the runner this
    gate was added against, at 355.8 lines per message — and the violation
    names the path.  (A traced run nobody reads reads 266.1 under a ceiling
    of 286.0; one read from construction 307.6.)
    """
    from benchmarks.check_regression import check_traced_message_path_cost

    assert check_traced_message_path_cost() == []
    _read_every_runner_from_construction(monkeypatch)
    (violation,) = check_traced_message_path_cost()
    assert "trace writer is fed through a log" in violation


def test_an_unread_run_holds_no_history_when_its_engine_stops(monkeypatch):
    """``run_simulation`` on a config that schedules no read keeps no occurrence.

    Bytes still held when the engine stops, per application message, between
    a 300- and a 600-time-unit run (tracemalloc: a count of allocations on a
    given interpreter, not a time).  The gate can fire: a run whose port
    keeps a tuple per send, receive and checkpoint until ``close()`` — every
    unread ``run_simulation`` on the commit this gate was added against —
    holds ~6x the bytes, and the violation names the port.  (An unread run
    reads 70.1 under a ceiling of 100.0; one whose recorder is read 416.0.)
    """
    from benchmarks.check_regression import check_held_bytes
    from repro.simulation import runner

    assert check_held_bytes() == []
    monkeypatch.setattr(runner, "_reads_history", lambda config: True)
    (violation,) = check_held_bytes()
    assert "port keeps its occurrences" in violation


def test_a_crash_run_with_the_audit_off_holds_no_history(monkeypatch):
    """The held-bytes gate's second row: the same config with a crash every
    30 time units plans each session from stable storage and keeps no log.

    The gate can fire: a run whose crashes read the recorded history — every
    crash run on the commit this row was added against — holds the whole
    log, and the violation names the sessions.  (16.8 bytes per message
    under a ceiling of 100.0; 1222.6 when a crash is a reader.)
    """
    from benchmarks.check_regression import check_crash_held_bytes
    from repro.simulation import runner

    assert check_crash_held_bytes() == []
    monkeypatch.setattr(runner, "_recovers_from_storage", lambda config: False)
    (violation,) = check_crash_held_bytes()
    assert "read the recorded history again" in violation


def test_a_finished_run_frees_its_history_by_reference_counting(monkeypatch):
    """A dropped churn-shaped run leaves no history for the cyclic collector.

    Bytes a dropped ``run_simulation`` with 10 crashes and the full audit
    still holds with the collector off, per recorded event, between a 150-
    and a 300-time-unit run (tracemalloc: a count of allocations on a given
    interpreter, not a time).  The gate can fire: a ``close()`` that keeps
    the recorder — as every run that read its recorder did on the commit
    this gate was added against, whose runner was in a cycle of its own —
    leaves the log, tracker and view in that cycle, and the violation names it; so does a knowledge
    view that holds its recorder strongly.  (15.9 under a ceiling of 100.0;
    450.0 in either case.)
    """
    from benchmarks.check_regression import check_released_history
    from repro.ccp.incremental import IncrementalAnalysisView
    from repro.simulation.runner import SimulationRunner

    assert check_released_history() == []
    close = SimulationRunner.close

    def close_keeping_the_recorder(runner):
        recorder = runner._trace
        close(runner)
        # A runner is in no cycle of its own any more: put it back in one,
        # as its sampling closure did on that commit.
        runner._trace, runner._itself = recorder, runner

    monkeypatch.setattr(SimulationRunner, "close", close_keeping_the_recorder)
    (violation,) = check_released_history()
    assert "SimulationRunner.close() keeps it" in violation
    # So does a knowledge view that holds its recorder (the recorder memoises the view).
    monkeypatch.setattr(SimulationRunner, "close", close)
    build_view = IncrementalAnalysisView.__init__

    def view_holding_its_recorder(view, recorder, tracker):
        build_view(view, recorder, tracker)
        view.held = recorder

    monkeypatch.setattr(IncrementalAnalysisView, "__init__", view_holding_its_recorder)
    (violation,) = check_released_history()
    assert "the knowledge view refers back to it strongly" in violation


def test_a_workload_exists_as_objects_one_window_at_a_time(monkeypatch):
    """Scheduling a workload builds one window of keys and entries, not the run's.

    Tracemalloc's peak per action from ``runner.run()`` until the first
    event, on a 64-process run.  The gate can fire: the whole workload
    handed over as one window — its sorted key list and an engine entry per
    action at once — peaks at ~4x, and the violation names it.  (45.7 under
    a ceiling of 158.0; 187.3 as one window; 270.3 on the commit this gate
    was added against, which also sorted the whole list before copying it.)
    """
    from benchmarks.check_regression import check_scheduled_workload
    from repro.simulation import workloads

    assert check_scheduled_workload() == []
    monkeypatch.setattr(workloads, "_RUN_SPAN", 10**9)
    (violation,) = check_scheduled_workload()
    assert "built whole again" in violation


def test_a_link_keeps_its_next_draws_not_a_generator(monkeypatch):
    """An opened link holds a few buffered draws, not a Mersenne Twister.

    Traced bytes per link of a 64-process ``LinkFates`` after 5 messages on
    each link (a count of allocations on a given interpreter).  The gate can
    fire: links that each keep a ``random.Random(seed)`` — what every link
    did on the commit this gate was added against — hold ~6.8x the bytes,
    and the violation names the generator.  (449.1 under a ceiling of
    1024.0; 3045.1 with a generator per link.)
    """
    import random

    from benchmarks.check_regression import check_link_bytes
    from repro.simulation.network import LinkFates

    assert check_link_bytes() == []
    monkeypatch.setattr(
        LinkFates,
        "_link_rng",
        lambda fates, label, sender, receiver: random.Random(
            fates._link_seed(label, sender, receiver)
        ),
    )
    (violation,) = check_link_bytes()
    assert "keeps a random.Random again" in violation


def test_trace_codec_stays_under_its_line_ceiling():
    """A trace line costs a format string, one write and one C scan, and a
    replayed record one applier pass and one recording call.

    Executed-line counts per record written, per line read back and per
    record replayed (functions of the seed alone); the writer and reader this
    gate was added against — ``json.dumps`` + write + flush and ``json.loads``
    per record — read 2.7x and 1.9x the ceiling, and the replay before the
    one applier 1.2x its own.
    """
    from benchmarks.check_regression import check_trace_codec_cost

    assert check_trace_codec_cost() == []
    # The gates can fire.
    written, read, replayed = check_trace_codec_cost(ceiling=1.0, replay_ceiling=1.0)
    assert "TraceWriter.on_*" in written
    assert "TraceReader.lines" in read
    assert "TraceReader.replay" in replayed


def test_replay_leaves_no_history_for_the_cyclic_collector_to_walk(monkeypatch):
    """A replayed event log is exact tuples of atoms, which the collector untracks.

    GC-tracked objects a held replay adds per body record (a count, not a
    time).  The gate can fire: an event log that stores its send events as
    ``Event`` instances again — a ``NamedTuple``, which the collector never
    untracks — leaves 0.41 objects per record of this file tracked, and the
    violation names the log.
    """
    from benchmarks.check_regression import check_history_tracking
    from repro.causality.events import Event, EventLog

    assert check_history_tracking() == []
    add_send = EventLog.add_send

    def add_send_storing_events(log, sender, receiver, **kwargs):
        event, message = add_send(log, sender, receiver, **kwargs)
        stored = Event(*event)
        log.history(sender).events[-1] = stored
        return stored, message

    monkeypatch.setattr(EventLog, "add_send", add_send_storing_events)
    (violation,) = check_history_tracking()
    assert "GC-tracked objects per record" in violation and "EventLog" in violation


def test_a_replayed_recorder_keeps_each_recorded_number_once(monkeypatch):
    """A held replay keeps each distinct stored-vector entry value as one object.

    Bytes a held ``TraceReader.replay()`` keeps per record of a
    checkpoint-heavy 16-process trace (tracemalloc: a count of allocations on
    a given interpreter, not a time).  The gate can fire: a recorder that
    stores every vector as a plain ``tuple(dv)`` — the value table bypassed,
    as it is for any vector that is not all exact ints — keeps a fresh int
    per entry the JSON scanner made, and the violation names the door.
    (412.2 under a ceiling of 520.0; 636.7 with the table bypassed.)
    """
    from benchmarks.check_regression import check_replay_bytes
    from repro.simulation import trace

    assert check_replay_bytes() == []
    record_checkpoint = trace.TraceRecorder.record_checkpoint

    def record_checking_the_types(recorder, pid, index, dv, *, forced, time, exact_ints=False):
        record_checkpoint(recorder, pid, index, dv, forced=forced, time=time)

    # Every vector goes through the type guard, which no vector passes.
    monkeypatch.setattr(trace.TraceRecorder, "record_checkpoint", record_checking_the_types)
    monkeypatch.setattr(trace, "_INTS", frozenset())
    (violation,) = check_replay_bytes()
    assert "TraceRecorder.record_checkpoint" in violation


def test_retained_set_costs_one_c_bisection_per_pair(monkeypatch):
    """A retained set is n^2 ``bisect_left`` calls whose key and comparison run in C.

    An executed-line count per ``(i, f)`` pair (a function of the seed alone).
    The gate can fire: with the bisection probing the window through a Python
    key callback again — what the view this gate was added against did, at 4.9x
    the ceiling with its checkpoint-id, dict-lookup and generator per probe —
    the same sets come out (the gate's own run still audits safe and optimal)
    and the violation names the function.
    """
    from bisect import bisect_left

    from benchmarks.check_regression import check_retained_set_cost
    from repro.ccp.incremental import IncrementalAnalysisView

    assert check_retained_set_cost() == []

    def first_knowing_by_callback(rows, volatile, column, m):
        window = [*rows, volatile]

        def knows(offset):
            snapshot = window[offset]
            known = column(snapshot)
            return known >= m

        return bisect_left(range(len(window)), True, key=knows)

    monkeypatch.setattr(
        IncrementalAnalysisView, "_first_knowing", staticmethod(first_knowing_by_callback)
    )
    (violation,) = check_retained_set_cost()
    assert "IncrementalAnalysisView._retained" in violation


def test_store_cost_stays_one_connection_and_a_fixed_few_statements():
    """A stored sweep opens one connection per entry point, at any grid size.

    Counts of ``sqlite3.connect`` calls and of SQL statements per completed
    cell (functions of the code alone); the store this gate was added
    against opened a connection per operation — 21 on the 16-cell smoke
    grid against the ceiling of 2.
    """
    from benchmarks.check_regression import check_store_cost

    assert check_store_cost() == []
    connections, statements = check_store_cost(  # the gate can fire
        connections_ceiling=1, statements_ceiling=1.0
    )
    assert "stopped keeping its connection" in connections
    assert "SQLResultStore.enqueue/complete" in statements


def test_explorer_extends_runs_instead_of_replaying_prefixes(
    monkeypatch, replaying_explore
):
    """A search node costs its one new token, not a replay of its history.

    An executed-line count per explorer execution (a function of the
    configuration alone).  The gate can fire: a walk that starts every node
    on a fresh runner and replays its prefix — the ``replaying_explore``
    reference, what every walk did before first children extended their
    parent's run — reads ~1.8x and the violation names the path.  (The walk
    reads 1401.8 under a ceiling of 1610.0; the replaying walk 2572.8.)
    """
    import repro.explore.explorer
    from benchmarks.check_regression import check_explore_cost

    assert check_explore_cost() == []
    monkeypatch.setattr(repro.explore.explorer, "explore", replaying_explore)
    (violation,) = check_explore_cost()
    assert "replay their prefix again" in violation


def test_fuzzer_audits_only_the_states_beyond_a_clean_parent(
    monkeypatch, full_audit_execute
):
    """A fuzz execution costs its new states, not its parent's prefix again.

    An executed-line count per fuzz execution (a function of the target and
    seed alone).  The gate can fire: a fuzzer whose executor ignores
    ``check_from`` — every mutant re-auditing the prefix its parent already
    passed — reads ~1.2x and the violation names the path.  (The run reads
    9616.7 under a ceiling of 11000.0; the re-auditing one 11388.5.)
    """
    from benchmarks.check_regression import check_fuzz_cost
    from repro.explore.executor import ScheduleExecutor

    assert check_fuzz_cost() == []
    monkeypatch.setattr(ScheduleExecutor, "execute", full_audit_execute)
    (violation,) = check_fuzz_cost()
    assert "mutants re-audit their parent's prefix" in violation


def test_campaign_gate_is_deterministic_across_worker_counts():
    """Serial and 2-worker execution of the same campaign spec must yield
    byte-identical aggregate tables — the property paper-scale sweeps rely on."""
    from benchmarks.check_regression import check_campaign_determinism

    assert check_campaign_determinism(workers=2) == []
