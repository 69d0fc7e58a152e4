"""Tier-1 smoke wiring for the perf-regression checker.

Runs :mod:`benchmarks.check_regression` in smoke mode (only the smoke-sized
sweep configurations, ratio comparison — hardware independent) against the
committed ``BENCH_perf.json``, and sanity-checks the committed document
itself: the headline acceptance row (8 processes / 2000 messages at >= 10x
over the brute-force reference), the datacenter-tier latency row (64
processes / 10^5 messages under 50 ms per instant), the medium-tier memory
section (>= 30% peak reduction from pruning), the fresh pruned-run memory
gate (peak traced bytes must stay within 20% of the committed baseline), the
recovery-session scaling gate (a session may cost at most 2x more after a
4x longer warm-up history), the recording-path gate (executed lines per
recorded send/receive/checkpoint under an absolute ceiling), the
message-path gate (executed lines of a whole unread run per application
message, untraced and traced), the trace-codec gate (executed lines per
trace record written and per trace line read back, under one ceiling), the
retained-set gate (executed lines per ``(i, f)`` pair of a Theorem-1/2
retained set), the store-cost gate (SQLite connections opened per stored
sweep and SQL statements per completed cell) and the explorer gate
(executed lines per explorer execution on a fixed exhaustive walk).
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

    def test_large_tier_rows_are_pruned_and_extrapolated(self, committed_document):
        large = [
            row
            for row in committed_document["rows"]
            if row["processes"] >= 32 and row["messages"] >= 20000
        ]
        assert large, "sweep must include the datacenter tier"
        for row in large:
            assert row["pruned"] is True
            assert row["old_extrapolated"] is True
            assert row["pruned_events"] > 0
            # Pruning is the point: the live log must be a small fraction of
            # the full event count that was compacted away.
            assert row["live_log_events"] < row["pruned_events"] / 10

    def test_committed_document_gates_pass(self, committed_document):
        """The static acceptance gates over the committed document itself."""
        from benchmarks.check_regression import check_committed_document

        assert check_committed_document(BENCH_PATH) == []

    def test_memory_section_meets_reduction_floor(self, committed_document):
        memory = committed_document["memory"]
        assert memory["peak_pruned_bytes"] > 0
        assert memory["peak_unpruned_bytes"] > memory["peak_pruned_bytes"]
        assert memory["reduction"] >= 0.30


def test_smoke_regression_check_passes(committed_document):
    """The live kernel must not have regressed against the committed baseline.

    Ratio mode only (kernel vs brute-force measured seconds apart in this
    process), so the check is meaningful on any hardware; the generous
    threshold keeps tier-1 robust to noisy CI boxes while still catching a
    genuine kernel regression, which shows up as an order-of-magnitude shift.
    The campaign gate is skipped here — the dedicated test below runs it once
    with clear failure attribution, instead of paying for the sweep twice.
    The memory gate (tracemalloc-based, hardware independent) runs as part of
    this check: a pruned medium-tier run whose peak grows more than 20% over
    the committed baseline fails tier-1.  So does the recovery-session scaling
    gate (a ratio of two executed-line counts, a function of the seed alone):
    replaying or rescanning the history per session reads ~3.6x against its
    2x ceiling, and the violation printed on stderr names it.  The
    recording-path, message-path (untraced and traced), trace-codec,
    retained-set, store-cost and explorer gates run here too and have their
    own tests below.
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
    message — and the violation names the path.  (An unread run reads 232.6
    under a ceiling of 274.2; a run read from construction 302.5.)
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
    names the path.  (A traced run nobody reads reads 270.4 under a ceiling
    of 319.1; one read from construction 343.0.)
    """
    from benchmarks.check_regression import check_traced_message_path_cost

    assert check_traced_message_path_cost() == []
    _read_every_runner_from_construction(monkeypatch)
    (violation,) = check_traced_message_path_cost()
    assert "trace writer is fed through a log" in violation


def test_trace_codec_stays_under_its_line_ceiling():
    """A trace line costs a format string, one write and one C scan.

    Executed-line counts per record written and per line read back (functions
    of the seed alone); the writer and reader this gate was added against —
    ``json.dumps`` + write + flush and ``json.loads`` per record — read 2.7x
    and 1.9x the ceiling.
    """
    from benchmarks.check_regression import check_trace_codec_cost

    assert check_trace_codec_cost() == []
    written, read = check_trace_codec_cost(ceiling=1.0)  # the gate can fire
    assert "TraceWriter.on_*" in written
    assert "TraceReader.lines" in read


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
    parent's run — reads ~1.7x and the violation names the path.  (The walk
    reads 1669.5 under a ceiling of 1920.0; the replaying walk 2914.6.)
    """
    import repro.explore.explorer
    from benchmarks.check_regression import check_explore_cost

    assert check_explore_cost() == []
    monkeypatch.setattr(repro.explore.explorer, "explore", replaying_explore)
    (violation,) = check_explore_cost()
    assert "replay their prefix again" in violation


def test_campaign_gate_is_deterministic_across_worker_counts():
    """Serial and 2-worker execution of the same campaign spec must yield
    byte-identical aggregate tables — the property paper-scale sweeps rely on."""
    from benchmarks.check_regression import check_campaign_determinism

    assert check_campaign_determinism(workers=2) == []
