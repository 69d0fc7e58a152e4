"""Compare a fresh perf run against the committed ``BENCH_perf.json``.

The committed file (written by :mod:`benchmarks.bench_perf_scaling` at the
repository root) is the perf trajectory between PRs.  This checker re-measures
and exits nonzero when any kernel row regressed by more than the threshold
(default 30%).

Two comparison modes, because wall-clock seconds do not transfer between
machines:

* **ratio mode** (default): compares each row's *speedup* — the per-instant
  cost of the brute-force reference divided by the kernel's, both measured in
  the same process seconds apart.  A kernel slowdown shrinks the ratio no
  matter how fast the host is, so this is safe for CI/pytest on arbitrary
  hardware.
* **absolute mode** (``--absolute``): additionally compares raw
  ``new_per_instant_s`` seconds.  Only meaningful when the baseline was
  produced on the same machine.

Rows are matched on (processes, messages); rows whose fresh kernel time is
below ``--min-seconds`` are skipped in absolute mode (micro-timings are
noise).  The pytest smoke test (``tests/benchmarks/test_perf_regression.py``)
invokes :func:`main` with ``--smoke``, which re-measures only the smoke-sized
configurations so tier-1 stays cheap.

Besides the perf rows, the checker gates the **campaign subsystem**: a
seconds-sized sweep (the smoke campaign spec) is executed twice — in-process
and in 2 worker processes — and the aggregate CSV/JSON documents must be byte
identical.  Any nondeterminism introduced into cell seeding, multi-process
execution or aggregation ordering fails the gate before it can corrupt a paper-scale
study.  ``--skip-campaign`` disables the gate (e.g. when bisecting a pure
kernel regression).

The **recovery-session scaling** gate (``--smoke`` only) is a ratio gate too,
over a deterministic counter instead of a clock: the same crash schedule is
appended to a 1x and to a 4x warm-up history, and the Python lines executed by
one recovery session (crash, recovery line, rollbacks, history truncation,
full Theorem-1/2 audit) may grow by at most 2x.  A session is meant to cost
what it rolled back, not the length of the run; replaying or rescanning the
history per session shows up as ~4x.

The **recording-path** gate (``--smoke`` only) uses the same counter as an
absolute ceiling: Python lines executed inside
``TraceRecorder.record_send/record_receive/record_checkpoint`` (callees —
the ``EventLog`` — included) per recorded occurrence on a fixed audit-off
run.  The path allocates one record per event and one per message state and
keeps no second message table; a shadow structure or a per-field
``__init__`` growing back shows up as tens of lines per occurrence.

The **message-path** gate (``--smoke`` only) counts every line the same run
executes — the whole ``runner.run()``, recorder unread — per application
message: what the middleware costs (engine, network, node, protocol,
collector, storage) when nobody asks for the log.  Building the log of an
unread run again, a per-entry call chain growing back into the receive
path, or the workload going back through the heap one closure-wrapped action
at a time, shows up as tens of lines per message.

The **traced message-path** gate (``--smoke`` only) counts the same on the
same run streaming its trace to a file, recorder still unread: the trace
writer is fed each occurrence as it happens and the log is built only at the
first read, so a file costs its records, not an event log built to forward
them — which shows up as ~70 lines per message.

The **held-bytes** gate (``--smoke`` only) measures memory, not lines: the
bytes an unread ``run_simulation`` of the same 8-process config still holds
when its engine stops (tracemalloc's current size where the runner builds
its result, less the size before the run), per application message, between
a 300- and a 600-time-unit run.  ``run_simulation`` releases its runner
right after ``run()``, so a run that schedules no read keeps no occurrence;
a port that keeps a tuple per send, receive and checkpoint until ``close()``
shows up as ~2.8x.  Its second row runs the same config with a crash every
30 time units under the same ceiling: a crash under an RDT protocol and a
safe collector is planned from the nodes' stable storage, so that run keeps
no history either; one whose sessions read the recorded history holds the
whole log (~70x).

The **released-history** gate (``--smoke`` only) measures memory with the
cyclic collector disabled: the bytes a dropped ``run_simulation`` of a fixed
8-process config with 10 crashes and ``audit="full"`` still holds
(tracemalloc's current size once its result is dropped, less the size
before the run), per event its final log recorded, between a 150- and a
300-time-unit run.  ``close()`` lets go of the recorder, whose knowledge
view refers back to it weakly, so the log, the knowledge tracker and the
view are freed by reference counting when the run ends; a recorder that
waits in the runner's own cycle for a full collection shows up as ~17x.

The **scheduled-workload** gate (``--smoke`` only) measures memory at the
start of a run: tracemalloc's peak from ``runner.run()`` until the first
event fires, less the size before, per callback then pending, on a fixed
64-process run of the default workload.  The workload is drawn into compact
columns and handed to the engine one window at a time, so only a window's
keys and entries ever exist as objects; the whole workload handed over as
one window shows up as ~4x, and built as a sorted key list and then copied
into the engine as ~6x.

The **link-bytes** gate (``--smoke`` only) measures memory the same way: the
bytes a 64-process ``LinkFates`` holds per directed link after 5 application
messages on each of its 4 032 links, the median a link of the 64-process
steady run draws.  A link keeps its next draws, not a generator; a
``random.Random`` per link (2 560 bytes of Mersenne-Twister state) shows up as
~6.8x.

The **trace-codec** gate (``--smoke`` only) counts the same way on the same
run with a trace attached: lines executed inside ``TraceWriter.on_send/
on_receive/on_checkpoint/write_sample`` per record written, and inside
``TraceReader.lines()`` (the line iterator traces and live shards share) per
line read back.  A line
costs a format string (or one shared encoder), one unbuffered write and one
C scan; a per-record ``json.dumps``/``json.loads`` wrapper chain, a buffered
write-and-flush pair or a table rebuilt per record shows up as 2-4x.

The **replay-path** gate (``--smoke`` only) counts the same way on the file
the trace-codec gate's run wrote: every line ``TraceReader.replay()`` executes
— parsing, the record applier, and the ``TraceRecorder`` / ``EventLog``
recording it drives — per body record.  A record costs one parse, one
applier pass that checks its fields once and one recording call; a
per-record chain of wrappers that re-check what the frame before them
computed shows up as ~1.4x.

The **history-tracking** gate (``--smoke`` only) counts objects, not lines,
on the same file: the GC-tracked objects (``len(gc.get_objects())`` after a
``gc.collect()``) that ``TraceReader.replay()`` adds per body record, the
replay held.  The event log keeps exact tuples of atoms, which the cyclic
collector stops tracking at its first pass, so a replayed history leaves
almost nothing for a full collection to walk; records stored as tuple
subclasses (``NamedTuple`` instances) or holding an enum member stay tracked
for the life of the log and show up as ~1.6 objects per record.

The **replay-bytes** gate (``--smoke`` only) measures memory again: the
bytes a held ``TraceReader(path).replay()`` keeps (tracemalloc's current size
after it, less the size before), per body record, on a trace the gate writes
from a fixed checkpoint-heavy 16-process run whose vector entries outgrow
CPython's small-int cache.  A recorder keeps each stored-vector entry value
once — ``TraceRecorder.record_checkpoint`` takes the entries from its value
table — and a receive record the send's message id; a stored vector built
with a plain ``tuple(dv)`` again, one fresh int per entry, shows up as ~1.5x.

The **retained-set** gate (``--smoke`` only) counts the same way inside
``IncrementalAnalysisView._retained`` (callees included) per ``(i, f)`` pair
of active processes on the same run with ``audit="full"``.  A pair costs one
C-level ``bisect_left`` over a column of ``p_i``'s checkpoint rows and one
comparison with the volatile row; a Python key callback probing the window —
a checkpoint id, a dict lookup and a generator per probe — shows up as 5-8x.

The **store-cost** gate (``--smoke`` only) counts what the SQL result store
asks of SQLite on a serial smoke-campaign run plus its ``store_summary``:
connections opened (``sqlite3.connect`` wrapped) and SQL statements executed
(``Connection.set_trace_callback``) per completed cell.  A store holds one
connection per run, so the first is a constant — two, one per entry point —
whatever the grid; a connection per operation, or a ``COUNT(*)`` scan per
transaction growing back, shows in one or the other.

The **explorer** gate (``--smoke`` only) counts every line an exhaustive
``explore()`` of a 2-process, 3-message ring executes, per execution.  A
search node's first explored child extends its parent's live run by one
token, so most executions cost one token and one audit; a walk that
rebuilds the runner and replays the whole prefix at every node shows up as
~1.7x.

The **fuzzer** gate (``--smoke`` only) counts every line a fixed in-memory
``fuzz()`` of the ``gossip`` target executes, per execution.  A mutant
shares a prefix with the parent it was drawn from, which this run already
audited clean, so it audits only the states beyond that prefix; a fuzzer
whose mutants re-audit their parent's prefix shows up as ~1.3x.

Run directly::

    python benchmarks/check_regression.py --smoke
    python benchmarks/check_regression.py --fresh BENCH_perf.json --absolute
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import random
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
for _path in (_SRC, _REPO_ROOT):  # repo root makes `benchmarks.*` importable
    if _path not in sys.path:
        sys.path.insert(0, _path)

BASELINE_PATH = os.path.join(_REPO_ROOT, "BENCH_perf.json")

# Committed-document acceptance gate: the datacenter row's *mean* latency per
# analysis instant (``new_per_instant_s``) must stay under this ceiling — the
# worst instant (``new_per_instant_max_s``) is reported beside it in
# docs/kernel.md, not gated.
LARGE_LATENCY_CONFIG = (64, 100000)
LARGE_LATENCY_CEILING_S = 0.05
# Fresh-run memory gate: peak traced bytes of a medium-tier run may grow at
# most this much over the committed baseline.
MEMORY_GROWTH_THRESHOLD = 0.20
# Recovery-session scaling gate: simulated warm-up before the first crash (1x
# and 4x), the crash schedule appended to both, and how much more one session
# may cost on the longer history.
SESSION_WARM_UPS = (60.0, 240.0)
SESSION_SCHEDULE = (20, 40.0)  # sessions, simulated time they are spread over
SESSION_COST_GROWTH_CEILING = 2.0
# Recording-path gate: lines per recorded occurrence on its fixed run (28.9
# when the gate was added, so ~25 % headroom, 28.5 since CheckpointId,
# EventId and StoredCheckpoint are NamedTuples, and 18.9 since the
# EventLog builds its records without their validating constructors and the
# membership test is one set lookup, 17.5 since the records are exact
# tuples, and 16.9 since the recorder keeps no dropped-message set or
# checkpoint counts beside its log, the ceiling lowered by that 0.6-line drop;
# 61.4 on its parent commit, with the recorder's shadow message tables
# and dataclass records; still 16.9 since a stored checkpoint keeps only
# what recovery reads and the UC table no elimination history, and 17.4
# since record_checkpoint takes a stored vector's entries from the
# recorder's value table, two lines per checkpoint behind a type guard).
RECORDING_LINES_CEILING = 35.4
# Message-path gate, on the same run with the recorder unread: lines executed
# by the whole runner.run() per application message (249.2 since the workload
# is a sorted stream beside the engine's heap and the per-message records are
# tuples, so ~15 % headroom, 250.6 since each kept occurrence also tests
# for a trace writer, 243.4 since a StoredCheckpoint is a NamedTuple
# built positionally, 245.4 since a receipt refuses an orphan piggyback, and
# 232.6 since the runner streams the workload's keys against one handler per
# (process, kind, target), the ceiling lowered by that 12.8-line drop, and
# 229.6 since the node keeps no sent / received / duplicate / rollback
# counters, lowered again by that 3.0-line drop, and 227.2 since a stored
# checkpoint keeps only what recovery reads and the UC table keeps no
# elimination history, and 228.2 since a link serves its buffered draws
# through a Python uniform() instead of holding a random.Random;
# 274.6 before that, with every action pushed
# through the heap behind two closures; 355.6 when the run still built the
# event log nobody read and re-linked UC through two calls per entry).  The
# ceiling was 274.2 until the EventLog built its records without their
# validating constructors: a run that builds its log nobody reads then fell
# from 302.5 to 277.8, so the ceiling went back to ~15 % above 232.6.  It
# was 264.5 until the storage cut, when a run read from construction (the
# gate's can-fire case) measured 267.1, 2.6 lines above it: the ceiling
# went to about midway between 227.2 and 267.1, so the gate passes and
# fires with ~20 lines to spare either way.
MESSAGE_PATH_LINES_CEILING = 247.0
# Traced message-path gate: the same count with the run streaming its trace
# and nobody reading the recorder (288.5 since the writer is fed as the
# nodes' occurrences happen and the log is built at the first read, so ~15 %
# headroom, 281.3 since a StoredCheckpoint is a NamedTuple, 283.3 since
# a receipt refuses an orphan piggyback, and 270.4 since the workload's keys
# are streamed against shared handlers, the ceiling lowered by that 12.9-line
# drop, and 267.4 since the node keeps no counters the network and the log
# own, lowered again by that 3.0-line drop, and 265.0 since a stored
# checkpoint keeps only what recovery reads and the UC table keeps no
# elimination history, and 266.1 since a link serves buffered draws; 355.8 when
# the writer was fed through the recorder, which built and validated the log
# only to forward each occurrence to it).  The ceiling was 319.1 until the
# EventLog built its records without their validating constructors: a traced
# run that builds its log nobody reads then fell from 343.0 to 318.2, so the
# ceiling went back to ~15 % above 270.4.  It was 308.0 until the storage
# cut, when a traced run read from construction (the gate's can-fire case)
# measured 307.6, 0.4 lines below it: the ceiling went to about midway
# between 265.0 and 307.6, so the gate passes and fires with ~21 lines to
# spare either way.
TRACED_MESSAGE_PATH_LINES_CEILING = 286.0
# Held-bytes gate: bytes an unread run_simulation of the recording-path
# gate's config still holds when its engine stops, per application message,
# between the two durations (173.1 on Python 3.11 when the gate was added;
# 487.0 on its parent commit, whose port kept a tuple per occurrence until
# close()).  It reads 70.1 since the network keeps delivered message ids only
# under a duplicating channel, so the ceiling went from 240 to 100; keeping
# them under every channel again (~32 bytes per id, and the set's hash table
# quadrupling between the two runs) reads 173.1.
# The gate's second row is the same config with one crash per
# HELD_BYTES_CRASH_GAP time units spread over the run, under the same
# ceiling: it plans each recovery session from the nodes' stable storage and
# holds no history either (16.8 when the row was added, beside 7.6 for the
# first row; 1222.6 on its parent commit, which read the recorder at every
# crash and so kept the whole log).
HELD_BYTES_DURATIONS = (300.0, 600.0)
HELD_BYTES_PER_MESSAGE_CEILING = 100.0
HELD_BYTES_CRASH_GAP = 30.0
# Released-history gate: traced bytes a dropped run_simulation of a fixed
# 8-process config with RELEASED_HISTORY_CRASHES crashes and audit="full"
# still holds with the cyclic collector off, per recorded event, between the
# two durations.  The ceiling sits between a run that frees its recorder by
# reference counting at close() and one whose recorder waits in the
# runner's cycle (or in a view that holds it back) for a full collection.
RELEASED_HISTORY_DURATIONS = (150.0, 300.0)
RELEASED_HISTORY_CRASHES = 10
RELEASED_HISTORY_BYTES_PER_EVENT_CEILING = 100.0
# Scheduled-workload gate: tracemalloc's peak from runner.run() until the
# first event fires, per pending callback, on a 64-process, 600-time-unit run
# of the default workload, seed 1 (~23 k actions): 45.7 on Python 3.11 when
# the gate was added, where the workload is drawn into columns and streamed
# window by window; 270.3 on its parent commit, which built the whole key
# list, sorted it and copied it into the engine; 187.3 for one window of the
# whole workload.  The ceiling is about midway between 45.7 and 270.3.
SCHEDULED_WORKLOAD_RUN = (64, 600.0)  # processes, duration
SCHEDULED_WORKLOAD_BYTES_CEILING = 158.0
# Link-bytes gate: traced bytes per directed link of a 64-process LinkFates
# after 5 application messages on every link (449.1 on Python 3.11 when the
# gate was added; 3045.1 on its parent commit, which gave every link its own
# random.Random).
LINK_BYTES_PROCESSES = 64
LINK_BYTES_MESSAGES = 5
LINK_BYTES_CEILING = 1024.0
# Trace-codec gate, on the same run with a trace attached: lines per record
# written and per line read back (13.9 and 16.0 when the gate was added, 13.0
# read since a line is parsed before it is tested for blankness, 9.0 read
# since the read side times TraceReader.lines() alone, the record checks
# having moved to where records are applied; 53.4 and 38.0 on its parent
# commit, which called json.dumps/json.loads and a buffered write + flush per
# record).
TRACE_CODEC_LINES_CEILING = 20.0
# Replay-path gate, on the file that run wrote: lines TraceReader.replay()
# executes per body record, recording included (42.5 when the gate was added,
# so ~15 % headroom, 41.2 since the records are exact tuples, 40.6 since the
# recorder keeps no dropped-message set or checkpoint counts beside its log,
# the ceiling lowered by that 0.6-line drop, 41.0 since record_checkpoint
# takes a stored vector's entries from its value table, 40.8 since the
# applier tells it the vector's types are checked; 59.1 on its
# parent commit, whose records went through
# validate_record, a second dispatch, a validating Event constructor and
# ProcessHistory.append).
REPLAY_LINES_CEILING = 48.4
# History-tracking gate, on the trace-codec gate's file: GC-tracked objects a
# held TraceReader.replay() adds per body record (0.0016 when the gate was
# added; 1.622 on its parent commit, whose event log stored Event, Message and
# CheckpointId NamedTuple instances, with an enum member in every event).
TRACKED_PER_RECORD_CEILING = 0.05
# Replay-bytes gate: bytes a held TraceReader.replay() keeps per body record
# of the trace its fixed run writes (16 processes, a basic checkpoint every
# 0.25 time units on average, 200 time units, seed 1: ~16 k records whose
# vector entries reach ~900).  412.2 on Python 3.11 when the gate was added;
# 639.0 on its parent commit, whose recorder stored tuple(dv) — a fresh int
# object per entry above 256 — and whose receive records kept the r line's
# message id.  The ceiling is about midway.
REPLAY_BYTES_RUN = (16, 200.0, 0.25)  # processes, duration, mean checkpoint gap
REPLAY_BYTES_PER_RECORD_CEILING = 520.0
# Retained-set gate, on the same run with audit="full": lines inside
# IncrementalAnalysisView._retained per (i, f) pair (10.1 when the gate
# was added, so ~40 % headroom, 9.5 since a CheckpointId is a NamedTuple
# built in C, and 9.6 since the same loop also serves one process's share;
# 69.2 on its parent commit, whose bisection probed through a Python
# closure).
RETAINED_LINES_CEILING = 14.0
# Store-cost gate, on a serial smoke-campaign run (16 cells) plus its
# store_summary: connections opened (2 when the gate was added — one per entry
# point, at any grid size; 21 on its parent commit, one per store operation)
# and SQL statements per completed cell, schema set-up included (23.0 when the
# gate was added, so ~25 % headroom; 24.2 on its parent commit).
STORE_CONNECTIONS_CEILING = 2
STORE_STATEMENTS_CEILING = 29.0
# Explorer gate: lines an exhaustive explore() of ring_program(2, 3), seed 1,
# executes per execution (1401.8 since a token is audited by event from the
# knowledge rows instead of over a whole-state CCP, down from 1655.4, so
# ~15 % headroom; 1669.5 when the gate was added under a 1920.0 ceiling;
# 2914.6 on its parent commit, which rebuilt the runner and replayed the
# whole prefix for every search node, 2572.8 for that walk today).
EXPLORE_LINES_CEILING = 1610.0
# Fuzzer gate: lines fuzz("gossip", budget=60, seed=1, minimize=False,
# explorer_seed_executions=0) executes per execution, in-memory corpus
# (9937.2 since a token is audited by event, down from 12096.7 under the
# whole-state audit; 9616.7 on Python 3.11 since the recorder stopped
# compacting, 9783.6 before, so ~15 % headroom; the ceiling was 11400.0
# until then, 13900.0 from 12053.3, when the scc coverage feature began
# reading the zigzag kernel's condensation; 17120.0 before mutants skipped
# the audits of the prefix their parent had already passed, hashed each
# schedule once and asked for the zigzag pairs once; 11388.5 today for
# mutants that re-audit that prefix, 11622.7 before).
FUZZ_LINES_CEILING = 11000.0


def _load_document(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        document = {"rows": document}
    return document


def _load_rows(path: str) -> Dict[Tuple[int, int], Dict[str, Any]]:
    document = _load_document(path)
    return {(row["processes"], row["messages"]): row for row in document["rows"]}


def check_committed_document(path: str) -> List[str]:
    """Static acceptance gates on the committed BENCH_perf.json itself.

    These hold the document to the claims the kernel makes: the 64-process /
    10^5-message row's *mean* over its analysis instants
    (``new_per_instant_s``) must be under ``LARGE_LATENCY_CEILING_S`` — the
    worst instant, ``new_per_instant_max_s``, is reported in docs/kernel.md
    and not gated — and the document must carry the medium-tier memory
    section the fresh-run memory gate compares against.  No fresh
    measurement happens here — CI regenerates the document in the nightly
    large-tier job, and this gate keeps a stale or regressed document from
    being committed as the new baseline.
    """
    violations: List[str] = []
    document = _load_document(path)
    rows = {(row["processes"], row["messages"]): row for row in document["rows"]}
    large = rows.get(LARGE_LATENCY_CONFIG)
    if large is None:
        violations.append(
            f"committed baseline has no "
            f"{LARGE_LATENCY_CONFIG[0]} procs x {LARGE_LATENCY_CONFIG[1]} msgs "
            f"row (the datacenter acceptance configuration)"
        )
    elif float(large["new_per_instant_s"]) >= LARGE_LATENCY_CEILING_S:
        violations.append(
            f"committed large-tier mean latency {large['new_per_instant_s']:.4f}s "
            f"per instant breaches the {LARGE_LATENCY_CEILING_S:.3f}s ceiling"
        )
    if document.get("memory") is None:
        violations.append("committed baseline has no memory section")
    # Single-sample old-path baselines are noise: every measured row must
    # either have >= 3 samples or be explicitly marked extrapolated.
    for key, row in sorted(rows.items()):
        if row.get("old_extrapolated"):
            continue
        if int(row.get("old_instants_measured", 0)) < 3:
            violations.append(
                f"{key[0]} procs x {key[1]} msgs: old path measured at "
                f"{row.get('old_instants_measured')} instant(s); need >= 3 "
                f"or an explicit old_extrapolated marker"
            )
    return violations


def check_memory_regression(
    baseline_document: Dict[str, Any],
    *,
    threshold: float = MEMORY_GROWTH_THRESHOLD,
) -> List[str]:
    """Fresh-run memory gate: re-measure the medium-tier peak.

    tracemalloc peaks count allocations, not host RSS, so they transfer
    between machines; a growth beyond ``threshold`` over the committed
    baseline means the recorder or the analyses started keeping more per
    event (a structural regression) rather than noise.
    """
    memory = baseline_document.get("memory")
    if memory is None:
        return ["baseline has no memory section to gate against"]
    from benchmarks.bench_perf_scaling import MEMORY_CONFIG, measure_memory_pass

    config = memory.get("config", {})
    expected = (
        config.get("processes"),
        config.get("messages"),
        config.get("samples"),
    )
    if expected != MEMORY_CONFIG:
        return [
            f"baseline memory config {expected} does not match the current "
            f"medium-tier memory configuration {MEMORY_CONFIG}"
        ]
    fresh = measure_memory_pass(*MEMORY_CONFIG)
    base = int(memory["peak_bytes"])
    ceiling = base * (1.0 + threshold)
    if fresh > ceiling:
        return [
            f"medium-tier peak memory regressed: {fresh} bytes vs "
            f"committed {base} (allowed ceiling {ceiling:.0f})"
        ]
    return []


def compare(
    baseline: Dict[Tuple[int, int], Dict[str, Any]],
    fresh: Dict[Tuple[int, int], Dict[str, Any]],
    *,
    threshold: float = 0.30,
    absolute: bool = False,
    min_seconds: float = 0.02,
) -> List[str]:
    """Return one violation message per regressed kernel row (empty == pass)."""
    violations: List[str] = []
    matched = 0
    for key, fresh_row in sorted(fresh.items()):
        base_row = baseline.get(key)
        if base_row is None:
            continue
        matched += 1
        processes, messages = key
        label = f"{processes} procs x {messages} msgs"
        base_speedup = float(base_row["speedup"])
        fresh_speedup = float(fresh_row["speedup"])
        if fresh_speedup < base_speedup * (1.0 - threshold):
            violations.append(
                f"{label}: kernel speedup regressed "
                f"{base_speedup:.2f}x -> {fresh_speedup:.2f}x "
                f"(allowed floor {base_speedup * (1.0 - threshold):.2f}x)"
            )
        if absolute:
            base_new = float(base_row["new_per_instant_s"])
            fresh_new = float(fresh_row["new_per_instant_s"])
            if fresh_new > min_seconds and fresh_new > base_new * (1.0 + threshold):
                violations.append(
                    f"{label}: kernel time regressed "
                    f"{base_new:.4f}s -> {fresh_new:.4f}s per instant "
                    f"(allowed ceiling {base_new * (1.0 + threshold):.4f}s)"
                )
    if matched == 0:
        violations.append(
            "no fresh row matches any baseline row — the sweep configurations "
            "diverged from the committed BENCH_perf.json"
        )
    return violations


class _LineCounter:
    """Counts the Python lines executed while active (``sys.settrace``).

    The count is a function of the executed code alone — no clock, so a gate
    built on it cannot flake on a busy host.  The cyclic collector is off
    while counting: a collection would run ``gc.callbacks`` (hypothesis
    installs one, 9 lines a collection) and finalizers of garbage other code
    left, at instants set by the allocations of everything run before.
    """

    def __init__(self) -> None:
        self.lines = 0
        self.calls = 0

    def counting(self, function: Any) -> Any:
        """``function`` with every call counted and its lines traced."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.calls += 1
            with self:
                return function(*args, **kwargs)

        return traced

    def _trace(self, frame: Any, event: str, arg: Any) -> Any:
        if event == "line":
            self.lines += 1
        return self._trace

    def __enter__(self) -> "_LineCounter":
        self._collecting = gc.isenabled()
        gc.disable()
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        sys.settrace(self._previous)
        if self._collecting:
            gc.enable()


def recovery_session_cost(warm_up: float) -> float:
    """Python lines executed per recovery session after ``warm_up`` of failure-free history.

    An 8-process FDAS + RDT-LGC run with ``audit="full"``; only the sessions
    (``SimulationRunner.inject_crash``) are traced, so the simulation between
    them is not counted, and the first session includes building the
    knowledge tracker from the warm-up history.  The count is a function of
    the seed alone.
    """
    from repro.simulation.runner import SimulationConfig, SimulationRunner
    from repro.simulation.workloads import UniformRandomWorkload

    sessions, window = SESSION_SCHEDULE
    rng = random.Random(1)
    runner = SimulationRunner(
        SimulationConfig(
            num_processes=8,
            duration=warm_up + window,
            workload=UniformRandomWorkload(),
            seed=1,
            audit="full",
        )
    )
    counter = _LineCounter()

    def crash(pid: int) -> None:
        with counter:
            runner.inject_crash(pid)

    for index in range(sessions):
        at = warm_up + (index + rng.random()) * window / sessions
        runner.engine.schedule_at(at, lambda pid=rng.randrange(8): crash(pid))
    result = runner.run()
    if len(result.recoveries) != sessions or not result.all_audits_safe:
        raise RuntimeError("the recovery-session gate's own run went wrong")
    return counter.lines / sessions


def check_recovery_session_scaling(
    *, ceiling: float = SESSION_COST_GROWTH_CEILING
) -> List[str]:
    """Gate: a recovery session costs what it rolled back, not the run's length."""
    short, long = (recovery_session_cost(warm_up) for warm_up in SESSION_WARM_UPS)
    growth = long / short
    if growth > ceiling:
        return [
            f"recovery-session cost grew {growth:.2f}x ({short:.0f} -> {long:.0f} "
            f"lines per session) when the warm-up history grew "
            f"{SESSION_WARM_UPS[1] / SESSION_WARM_UPS[0]:.0f}x (allowed {ceiling:.1f}x)"
        ]
    return []


def _recording_run_config(trace_path: Optional[str] = None) -> Any:
    """The fixed run of the recording-path and trace-codec gates."""
    from repro.simulation.runner import SimulationConfig
    from repro.simulation.workloads import UniformRandomWorkload

    return SimulationConfig(
        num_processes=8,
        duration=150.0,
        workload=UniformRandomWorkload(),
        seed=1,
        trace_path=trace_path,
    )


def recording_lines_per_occurrence() -> float:
    """Python lines executed per recorded send, receive and checkpoint.

    A failure-free 8-process FDAS + RDT-LGC run with the audit off, so no
    knowledge tracker exists and the recorder does nothing but record; only
    the three ``TraceRecorder.record_*`` calls are traced (their callees in
    the ``EventLog`` included), not the simulation around them.  Reading
    ``runner.trace`` before ``run()`` is what makes this run record as it
    happens (an unread one would not reach the recorder at all): the gate
    keeps measuring the recorder's own path.
    """
    from repro.simulation.runner import SimulationRunner

    runner = SimulationRunner(_recording_run_config())
    counter = _LineCounter()
    for name in ("record_send", "record_receive", "record_checkpoint"):
        setattr(runner.trace, name, counter.counting(getattr(runner.trace, name)))
    result = runner.run()
    if result.messages_sent == 0 or runner.trace.knowledge_tracker is not None:
        raise RuntimeError("the recording-path gate's own run went wrong")
    return counter.lines / counter.calls


def message_path_lines_per_message(trace_path: Optional[str] = None) -> float:
    """Python lines executed by the whole ``runner.run()`` per application message.

    The recording-path gate's run with the recorder left unread: engine,
    network, node, protocol, collector and storage — and nothing of
    ``TraceRecorder`` / ``EventLog``, which such a run does not reach.  With
    ``trace_path`` the run streams its trace there, so the trace writer and
    its codec are counted too; the log is still not built.
    """
    from repro.simulation.runner import SimulationRunner

    runner = SimulationRunner(_recording_run_config(trace_path))
    counter = _LineCounter()
    with counter:
        result = runner.run()
    if result.messages_sent == 0 or result.recoveries or result.audits:
        raise RuntimeError("the message-path gate's own run went wrong")
    return counter.lines / result.messages_sent


def check_message_path_cost(*, ceiling: float = MESSAGE_PATH_LINES_CEILING) -> List[str]:
    """Gate: an unread run costs its middleware, not a log nobody asked for."""
    lines = message_path_lines_per_message()
    if lines > ceiling:
        return [
            f"an unread run executes {lines:.1f} Python lines per application "
            f"message (allowed {ceiling:.1f}): the engine / network / node / "
            f"collector path regrew, or the run builds its log again"
        ]
    return []


def check_traced_message_path_cost(
    *, ceiling: float = TRACED_MESSAGE_PATH_LINES_CEILING
) -> List[str]:
    """Gate: a trace file is written from the occurrences, not from a log nobody reads."""
    with tempfile.TemporaryDirectory() as directory:
        lines = message_path_lines_per_message(os.path.join(directory, "gate.trace.jsonl"))
    if lines > ceiling:
        return [
            f"a traced run nobody reads executes {lines:.1f} Python lines per "
            f"application message (allowed {ceiling:.1f}): the trace writer is "
            f"fed through a log built for it again, or the middleware / codec regrew"
        ]
    return []


def _held_bytes_config(duration: float) -> Any:
    """The recording-path gate's config, audit off and failure-free, lasting ``duration``."""
    return dataclasses.replace(_recording_run_config(), duration=duration)


def _held_bytes_crash_config(duration: float) -> Any:
    """:func:`_held_bytes_config` with a crash every ``HELD_BYTES_CRASH_GAP``
    time units, round-robin over the processes."""
    from repro.simulation.failures import FailureSchedule

    config = _held_bytes_config(duration)
    crashes = round(duration / HELD_BYTES_CRASH_GAP)
    return dataclasses.replace(
        config,
        failures=FailureSchedule.of(
            [
                ((index + 0.5) * HELD_BYTES_CRASH_GAP, index % config.num_processes)
                for index in range(crashes)
            ]
        ),
    )


def held_bytes_per_message(config: Callable[[float], Any] = _held_bytes_config) -> float:
    """Bytes an unread ``run_simulation`` still holds when its engine stops, per message.

    ``config(duration)`` — by default the recording-path gate's config,
    audit off and failure-free — run at each of ``HELD_BYTES_DURATIONS``
    after a warm-up run that fills the interpreter's free lists:
    tracemalloc's current size where the runner builds its result, less the
    size before the run, and the difference between the two runs divided by
    the difference of their application messages.  Exact on a given
    interpreter: it counts allocations, not RSS.
    """
    import tracemalloc

    from repro.simulation import runner as runner_module

    build_result = runner_module.SimulationRunner._build_result
    held: List[int] = []

    def measured(runner: Any) -> Any:
        held.append(tracemalloc.get_traced_memory()[0])
        return build_result(runner)

    def run(duration: float) -> Tuple[int, int]:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run_config = config(duration)
        result = runner_module.run_simulation(run_config)
        if (
            result.messages_sent == 0
            or result.audits
            or len(result.recoveries) != len(run_config.failures)
        ):
            raise RuntimeError("the held-bytes gate's own run went wrong")
        return held.pop() - before, result.messages_sent

    tracing = tracemalloc.is_tracing()
    runner_module.SimulationRunner._build_result = measured  # type: ignore[method-assign]
    try:
        if not tracing:
            tracemalloc.start()
        run(HELD_BYTES_DURATIONS[-1])
        (short, short_messages), (long, long_messages) = map(run, HELD_BYTES_DURATIONS)
    finally:
        runner_module.SimulationRunner._build_result = build_result  # type: ignore[method-assign]
        if not tracing:
            tracemalloc.stop()
    return (long - short) / (long_messages - short_messages)


def check_held_bytes(*, ceiling: float = HELD_BYTES_PER_MESSAGE_CEILING) -> List[str]:
    """Gate: a run nobody reads holds no history while it runs."""
    held = held_bytes_per_message()
    if held > ceiling:
        return [
            f"an unread run_simulation still holds {held:.1f} bytes per application "
            f"message when its engine stops (allowed {ceiling:.1f}): the recorder "
            f"port keeps its occurrences again, or another per-message structure grew"
        ]
    return []


def check_crash_held_bytes(*, ceiling: float = HELD_BYTES_PER_MESSAGE_CEILING) -> List[str]:
    """Gate, the held-bytes check's second row: a crash run with the audit
    off plans its sessions from stable storage and holds no history either."""
    held = held_bytes_per_message(_held_bytes_crash_config)
    if held > ceiling:
        return [
            f"a crash run with the audit off still holds {held:.1f} bytes per application "
            f"message when its engine stops (allowed {ceiling:.1f}): its recovery "
            f"sessions read the recorded history again instead of stable storage"
        ]
    return []


def released_history_bytes_per_event() -> float:
    """Bytes a dropped churn-shaped ``run_simulation`` still holds, per recorded event.

    An 8-process run with ``RELEASED_HISTORY_CRASHES`` crashes spread over
    it and ``audit="full"`` — so its recorder, knowledge tracker and view
    are read — at each of ``RELEASED_HISTORY_DURATIONS``.  With the cyclic
    collector disabled, tracemalloc's current size once the result is
    dropped, less the size before the run, and the difference between the
    two runs divided by the difference of the events their final logs
    hold; the second of two rounds counts, the first fills the
    interpreter's caches.  What only the cyclic collector would free is
    counted; exact on a given interpreter.
    """
    import tracemalloc

    from repro.simulation import runner as runner_module
    from repro.simulation.failures import FailureSchedule
    from repro.simulation.workloads import UniformRandomWorkload

    build_result = runner_module.SimulationRunner._build_result
    events: List[int] = []

    def counted(runner: Any) -> Any:
        events.append(runner.trace.log.total_events())
        return build_result(runner)

    def run(duration: float) -> Tuple[int, int]:
        crashes = FailureSchedule.of(
            [
                (duration * (index + 0.5) / RELEASED_HISTORY_CRASHES, index % 8)
                for index in range(RELEASED_HISTORY_CRASHES)
            ]
        )
        config = runner_module.SimulationConfig(
            num_processes=8,
            duration=duration,
            workload=UniformRandomWorkload(),
            failures=crashes,
            audit="full",
            seed=1,
        )
        before = tracemalloc.get_traced_memory()[0]
        result = runner_module.run_simulation(config)
        if len(result.recoveries) != RELEASED_HISTORY_CRASHES or not result.all_audits_safe:
            raise RuntimeError("the released-history gate's own run went wrong")
        del result
        return tracemalloc.get_traced_memory()[0] - before, events.pop()

    tracing = tracemalloc.is_tracing()
    enabled = gc.isenabled()
    runner_module.SimulationRunner._build_result = counted  # type: ignore[method-assign]
    try:
        if not tracing:
            tracemalloc.start()
        gc.collect()
        gc.disable()
        for _ in range(2):
            (short, short_events), (long, long_events) = map(run, RELEASED_HISTORY_DURATIONS)
    finally:
        if enabled:
            gc.enable()
        runner_module.SimulationRunner._build_result = build_result  # type: ignore[method-assign]
        if not tracing:
            tracemalloc.stop()
    return (long - short) / (long_events - short_events)


def check_released_history(
    *, ceiling: float = RELEASED_HISTORY_BYTES_PER_EVENT_CEILING
) -> List[str]:
    """Gate: a finished run's history is freed by reference counting."""
    held = released_history_bytes_per_event()
    if held > ceiling:
        return [
            f"a dropped run_simulation still holds {held:.1f} bytes per recorded "
            f"event until a full collection (allowed {ceiling:.1f}): a cycle keeps "
            f"its recorder alive again — SimulationRunner.close() keeps it, or the "
            f"knowledge view refers back to it strongly"
        ]
    return []


def scheduled_workload_bytes_per_action() -> float:
    """Peak bytes a run's workload costs before its first event, per action.

    A ``SCHEDULED_WORKLOAD_RUN`` run of the default workload (audit off, no
    failures): tracemalloc's peak from ``runner.run()`` until the engine
    starts, less the size before, divided by the callbacks then pending.
    The run stops there; the second of two runs counts, the first fills the
    interpreter's caches.  Exact on a given interpreter.
    """
    import tracemalloc

    from repro.simulation import engine as engine_module
    from repro.simulation.runner import SimulationConfig, SimulationRunner
    from repro.simulation.workloads import UniformRandomWorkload

    class _Started(Exception):
        pass

    engine_run = engine_module.SimulationEngine.run
    peaks: List[Tuple[int, int]] = []

    def measured(engine: Any, *args: Any, **kwargs: Any) -> Any:
        peaks.append((tracemalloc.get_traced_memory()[1], engine.pending_events()))
        raise _Started

    processes, duration = SCHEDULED_WORKLOAD_RUN
    config = SimulationConfig(
        num_processes=processes, duration=duration, workload=UniformRandomWorkload(), seed=1
    )

    def run() -> float:
        runner = SimulationRunner(config)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            runner.run()
        except _Started:
            pass
        finally:
            runner.close()
        peak, pending = peaks.pop()
        return (peak - before) / pending

    tracing = tracemalloc.is_tracing()
    engine_module.SimulationEngine.run = measured  # type: ignore[method-assign]
    try:
        if not tracing:
            tracemalloc.start()
        run()
        return run()
    finally:
        engine_module.SimulationEngine.run = engine_run  # type: ignore[method-assign]
        if not tracing:
            tracemalloc.stop()


def check_scheduled_workload(*, ceiling: float = SCHEDULED_WORKLOAD_BYTES_CEILING) -> List[str]:
    """Gate: a run's workload exists as objects one window at a time."""
    held = scheduled_workload_bytes_per_action()
    if held > ceiling:
        return [
            f"scheduling a 64-process workload peaks at {held:.1f} bytes per action "
            f"before the first event fires (allowed {ceiling:.1f}): the workload is "
            f"built whole again, as a key list or as engine entries"
        ]
    return []


def link_bytes() -> float:
    """Traced bytes a ``LinkFates`` holds per directed link it has opened.

    A 64-process ``LinkFates`` on the default network, ``LINK_BYTES_MESSAGES``
    application messages on each of its links: tracemalloc's current size
    after the sends, less the size before the ``LinkFates`` was built,
    divided by the number of links.  Exact on a given interpreter.
    """
    import tracemalloc

    from repro.simulation.network import LinkFates, NetworkConfig

    processes = range(LINK_BYTES_PROCESSES)
    links = [
        (sender, receiver)
        for sender in processes
        for receiver in processes
        if sender != receiver
    ]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        fates = LinkFates(1, NetworkConfig())
        for _ in range(LINK_BYTES_MESSAGES):
            for sender, receiver in links:
                fates.app_delivery_times(sender, receiver, 0.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    if fates.stats.app_sent != LINK_BYTES_MESSAGES * len(links):
        raise RuntimeError("the link-bytes gate's own sends went wrong")
    return held / len(links)


def check_link_bytes(*, ceiling: float = LINK_BYTES_CEILING) -> List[str]:
    """Gate: a link keeps its next draws, not a generator it barely uses."""
    held = link_bytes()
    if held > ceiling:
        return [
            f"a 64-process LinkFates holds {held:.1f} bytes per opened link after "
            f"{LINK_BYTES_MESSAGES} messages on each (allowed {ceiling:.1f}): every "
            f"link keeps a random.Random again, or the per-link state grew"
        ]
    return []


def check_recording_path_cost(*, ceiling: float = RECORDING_LINES_CEILING) -> List[str]:
    """Gate: recording an occurrence stays one cheap record, kept once."""
    lines = recording_lines_per_occurrence()
    if lines > ceiling:
        return [
            f"the recording path executes {lines:.1f} Python lines per recorded "
            f"occurrence (allowed {ceiling:.1f}): TraceRecorder.record_* / "
            f"EventLog.add_* regrew"
        ]
    return []


def retained_set_lines_per_pair() -> float:
    """Python lines executed per ``(i, f)`` pair of a Theorem-1/2 retained set.

    The recording-path gate's run with ``audit="full"``: every audit instant
    asks the recorder's view for both retained sets, and only
    ``IncrementalAnalysisView._retained`` is traced (callees included).
    Nobody joins or leaves, so every call ranges over ``8 x 8`` pairs.
    """
    from repro.ccp.incremental import IncrementalAnalysisView
    from repro.simulation.runner import SimulationRunner

    config = dataclasses.replace(_recording_run_config(), audit="full")
    counter = _LineCounter()
    original = IncrementalAnalysisView._retained
    IncrementalAnalysisView._retained = counter.counting(original)
    try:
        result = SimulationRunner(config).run()
    finally:
        IncrementalAnalysisView._retained = original
    if counter.calls == 0 or not (result.all_audits_safe and result.all_audits_optimal):
        raise RuntimeError("the retained-set gate's own run went wrong")
    return counter.lines / (counter.calls * config.num_processes**2)


def check_retained_set_cost(*, ceiling: float = RETAINED_LINES_CEILING) -> List[str]:
    """Gate: a retained set costs n^2 C-level bisections, not n^2 Python probes."""
    lines = retained_set_lines_per_pair()
    if lines > ceiling:
        return [
            f"IncrementalAnalysisView._retained executes {lines:.1f} Python lines "
            f"per (i, f) pair (allowed {ceiling:.1f}): the bisection over the "
            f"checkpoint rows is probing through Python again"
        ]
    return []


def trace_codec_lines() -> Tuple[float, float, float]:
    """Python lines executed per trace record written, per trace line read and
    per body record replayed.

    The recording-path gate's run, streamed to a trace file.  Written: the
    four ``TraceWriter`` methods a failure-free run calls per occurrence and
    per sample, callees (the codec, the write) included.  Read: the file it
    wrote, through ``TraceReader.lines()`` alone.  Replayed:
    the same file through ``TraceReader.replay()``, callees (the applier, the
    recorder and its event log) included.
    """
    from repro.simulation.runner import SimulationRunner
    from repro.traceio.reader import TraceReader
    from repro.traceio.writer import TraceWriter

    write_counter = _LineCounter()
    originals = {
        name: getattr(TraceWriter, name)
        for name in ("on_send", "on_receive", "on_checkpoint", "write_sample")
    }
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gate.trace.jsonl")
        try:
            for name, method in originals.items():
                setattr(TraceWriter, name, write_counter.counting(method))
            result = SimulationRunner(_recording_run_config(path)).run()
        finally:
            for name, method in originals.items():
                setattr(TraceWriter, name, method)
        read_counter = _LineCounter()
        lines_read = 0
        with read_counter:
            for _ in TraceReader(path).lines():
                lines_read += 1
        replay_counter = _LineCounter()
        with replay_counter:
            replayed = TraceReader(path).replay()
    # Every record the writer methods wrote, plus the header and the footer.
    if result.messages_sent == 0 or lines_read != write_counter.calls + 2:
        raise RuntimeError("the trace-codec gate's own run went wrong")
    records = replayed.footer["records"]
    return (
        write_counter.lines / write_counter.calls,
        read_counter.lines / lines_read,
        replay_counter.lines / records,
    )


def check_trace_codec_cost(
    *,
    ceiling: float = TRACE_CODEC_LINES_CEILING,
    replay_ceiling: float = REPLAY_LINES_CEILING,
) -> List[str]:
    """Gate: a trace line costs its bytes, and a replayed record one pass —
    not a chain of per-record wrappers."""
    write_lines, read_lines, replay_lines = trace_codec_lines()
    violations = []
    if write_lines > ceiling:
        violations.append(
            f"the trace writer executes {write_lines:.1f} Python lines per record "
            f"(allowed {ceiling:.1f}): TraceWriter.on_* / the format codec regrew"
        )
    if read_lines > ceiling:
        violations.append(
            f"the trace reader executes {read_lines:.1f} Python lines per line "
            f"(allowed {ceiling:.1f}): TraceReader.lines / traceio.format.read_lines regrew"
        )
    if replay_lines > replay_ceiling:
        violations.append(
            f"replay executes {replay_lines:.1f} Python lines per record (allowed "
            f"{replay_ceiling:.1f}): TraceReader.replay / apply_event_record / the "
            f"recording path regrew"
        )
    return violations


def tracked_objects_per_replayed_record() -> float:
    """GC-tracked objects a replay adds per body record, the replay held.

    The trace-codec gate's run, streamed to a file; a full collection before
    each count, so what is counted is what a later full collection would
    walk.  Exact on a given interpreter: it counts objects, not time.
    """
    from repro.simulation.runner import SimulationRunner
    from repro.traceio.reader import TraceReader

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gate.trace.jsonl")
        result = SimulationRunner(_recording_run_config(path)).run()
        gc.collect()
        before = len(gc.get_objects())
        replayed = TraceReader(path).replay()
        gc.collect()
        after = len(gc.get_objects())
    records = replayed.footer["records"]
    if result.messages_sent == 0 or replayed.recorder.log.total_events() == 0:
        raise RuntimeError("the history-tracking gate's own run went wrong")
    return (after - before) / records


def check_history_tracking(*, ceiling: float = TRACKED_PER_RECORD_CEILING) -> List[str]:
    """Gate: a replayed history is records the cyclic collector never walks."""
    tracked = tracked_objects_per_replayed_record()
    if tracked > ceiling:
        return [
            f"a replayed trace leaves {tracked:.3f} GC-tracked objects per record "
            f"(allowed {ceiling:.3f}): the EventLog / TraceRecorder store records "
            f"the cyclic collector cannot untrack (a tuple subclass, an enum member)"
        ]
    return []


def replay_bytes_per_record() -> float:
    """Bytes a held ``TraceReader(path).replay()`` keeps, per body record.

    The trace is written by the fixed ``REPLAY_BYTES_RUN``; tracemalloc's
    current size after the replay (its result held, a full collection done)
    less the size before it, divided by the footer's record count.  Exact on
    a given interpreter: it counts allocations, not RSS.
    """
    import tracemalloc

    from repro.simulation.runner import SimulationConfig, run_simulation
    from repro.simulation.workloads import UniformRandomWorkload
    from repro.traceio.reader import TraceReader

    processes, duration, checkpoint_gap = REPLAY_BYTES_RUN
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gate.trace.jsonl")
        result = run_simulation(
            SimulationConfig(
                num_processes=processes,
                duration=duration,
                workload=UniformRandomWorkload(mean_checkpoint_gap=checkpoint_gap),
                seed=1,
                trace_path=path,
            )
        )
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            replayed = TraceReader(path).replay()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    if result.total_checkpoints == 0 or replayed.recorder.log.total_events() == 0:
        raise RuntimeError("the replay-bytes gate's own run went wrong")
    return held / replayed.footer["records"]


def check_replay_bytes(*, ceiling: float = REPLAY_BYTES_PER_RECORD_CEILING) -> List[str]:
    """Gate: a replayed recorder keeps each recorded number once."""
    held = replay_bytes_per_record()
    if held > ceiling:
        return [
            f"a held replay keeps {held:.1f} bytes per trace record (allowed "
            f"{ceiling:.1f}): TraceRecorder.record_checkpoint stores fresh entry "
            f"ints again instead of its value table's, or another per-record holding grew"
        ]
    return []


def store_cost() -> Tuple[int, float]:
    """Connections opened, and SQL statements executed per completed cell.

    The smoke campaign run serially into a fresh store, then folded by
    ``store_summary`` from the path — the two entry points a stored sweep
    goes through.  Both counts are functions of the code alone.
    """
    import sqlite3

    from repro.scenarios.campaign import run_campaign
    from repro.scenarios.campaign.queries import store_summary
    from repro.scenarios.experiments import smoke_campaign_spec

    connections = statements = 0
    real_connect = sqlite3.connect

    def count_statement(statement: str) -> None:
        nonlocal statements
        statements += 1

    def counting_connect(*args: Any, **kwargs: Any) -> Any:
        nonlocal connections
        connections += 1
        connection = real_connect(*args, **kwargs)
        connection.set_trace_callback(count_statement)
        return connection

    spec = smoke_campaign_spec()
    sqlite3.connect = counting_connect
    try:
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "gate.sqlite")
            run = run_campaign(spec, store_path=path)
            store_summary(path)
    finally:
        sqlite3.connect = real_connect
    if run.executed != spec.cell_count or run.failed_records:
        raise RuntimeError("the store-cost gate's own run went wrong")
    return connections, statements / run.executed


def check_store_cost(
    *,
    connections_ceiling: int = STORE_CONNECTIONS_CEILING,
    statements_ceiling: float = STORE_STATEMENTS_CEILING,
) -> List[str]:
    """Gate: the store costs its rows — one connection per run, a few statements per cell."""
    connections, statements = store_cost()
    violations = []
    if connections > connections_ceiling:
        violations.append(
            f"a stored sweep plus its summary opened {connections} SQLite connections "
            f"(allowed {connections_ceiling}): SQLResultStore stopped keeping its connection"
        )
    if statements > statements_ceiling:
        violations.append(
            f"the result store executes {statements:.1f} SQL statements per completed "
            f"cell (allowed {statements_ceiling:.1f}): SQLResultStore.enqueue/complete regrew"
        )
    return violations


def explore_lines_per_execution() -> float:
    """Python lines executed per explorer execution on a fixed exhaustive walk.

    ``explore(ExploreConfig(2, ring_program(2, 3), seed=1))`` with the default
    oracle stack and reduction, counted as a whole (executor, simulation and
    oracles included) and divided by ``stats.executions``.  The count is a
    function of the configuration alone.
    """
    from repro.explore.explorer import explore
    from repro.explore.program import ExploreConfig, ring_program

    counter = _LineCounter()
    with counter:
        result = explore(ExploreConfig(2, ring_program(2, 3), seed=1))
    if not (result.ok and result.stats.complete and result.stats.executions):
        raise RuntimeError("the explorer gate's own walk went wrong")
    return counter.lines / result.stats.executions


def check_explore_cost(*, ceiling: float = EXPLORE_LINES_CEILING) -> List[str]:
    """Gate: a search node costs its new token, not a replay of its history."""
    lines = explore_lines_per_execution()
    if lines > ceiling:
        return [
            f"the explorer executes {lines:.1f} Python lines per execution "
            f"(allowed {ceiling:.1f}): search nodes rebuild the runner and "
            f"replay their prefix again, or the executor / oracles regrew"
        ]
    return []


def fuzz_lines_per_execution() -> float:
    """Python lines executed per fuzz execution on a fixed in-memory run.

    ``fuzz("gossip", budget=60, seed=1, minimize=False,
    explorer_seed_executions=0)``, counted as a whole (mutation, executor,
    simulation, oracles and coverage included) and divided by
    ``stats.executions``.  The count is a function of the target and seed
    alone.
    """
    from repro.fuzz.fuzzer import fuzz

    counter = _LineCounter()
    with counter:
        result = fuzz(
            "gossip", budget=60, seed=1, minimize=False, explorer_seed_executions=0
        )
    if not (result.ok and result.stats.executions):
        raise RuntimeError("the fuzzer gate's own run went wrong")
    return counter.lines / result.stats.executions


def check_fuzz_cost(*, ceiling: float = FUZZ_LINES_CEILING) -> List[str]:
    """Gate: a fuzz execution costs its new states, not its parent's again."""
    lines = fuzz_lines_per_execution()
    if lines > ceiling:
        return [
            f"the fuzzer executes {lines:.1f} Python lines per execution "
            f"(allowed {ceiling:.1f}): mutants re-audit their parent's prefix, "
            f"or the mutation loop / executor / oracles regrew"
        ]
    return []


def check_campaign_determinism(*, workers: int = 2) -> List[str]:
    """Gate the campaign subsystem: in-process and multi-process execution of
    the same spec must produce byte-identical aggregate tables (empty == pass)."""
    from repro.scenarios.campaign import aggregate_campaign, run_campaign
    from repro.scenarios.experiments import smoke_campaign_spec

    violations: List[str] = []
    spec = smoke_campaign_spec()
    serial = run_campaign(spec, workers=1)
    pooled = run_campaign(spec, workers=workers)
    # Every smoke cell uses a safe collector, so a failed cell is a
    # simulation regression, not an expected study outcome.
    for label, run in (("serial", serial), ("pooled", pooled)):
        for record in run.failed_records:
            p = record["params"]
            violations.append(
                f"campaign smoke cell failed ({label}): {p['collector']} / "
                f"{p['workload']} / failures={p['failures']} / "
                f"seed#{p['seed_index']}: {record['error']}"
            )
    if violations:
        return violations
    serial_summary = aggregate_campaign(serial.records)
    pooled_summary = aggregate_campaign(pooled.records)
    if serial_summary.to_csv() != pooled_summary.to_csv():
        violations.append(
            f"campaign aggregate CSV differs between serial and "
            f"{workers}-worker execution of the same spec"
        )
    if serial_summary.to_json() != pooled_summary.to_json():
        violations.append(
            f"campaign aggregate JSON differs between serial and "
            f"{workers}-worker execution of the same spec"
        )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help="committed BENCH_perf.json to compare against",
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="a freshly produced BENCH_perf.json (measured in-process if omitted)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="measure only the smoke-sized configurations (for tier-1/pytest)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also compare raw seconds (same-machine baselines only)",
    )
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument("--min-seconds", type=float, default=0.02)
    parser.add_argument(
        "--skip-campaign",
        action="store_true",
        help="skip the campaign in-process-vs-2-worker determinism gate",
    )
    parser.add_argument(
        "--skip-memory",
        action="store_true",
        help="skip the fresh medium-tier memory gate",
    )
    args = parser.parse_args(argv)

    # The gates that need no committed baseline.
    standalone_violations: List[str] = []
    if args.smoke:
        standalone_violations += check_recovery_session_scaling()
        standalone_violations += check_recording_path_cost()
        standalone_violations += check_message_path_cost()
        standalone_violations += check_traced_message_path_cost()
        standalone_violations += check_held_bytes()
        standalone_violations += check_crash_held_bytes()
        standalone_violations += check_released_history()
        standalone_violations += check_scheduled_workload()
        standalone_violations += check_link_bytes()
        standalone_violations += check_trace_codec_cost()
        standalone_violations += check_history_tracking()
        standalone_violations += check_replay_bytes()
        standalone_violations += check_retained_set_cost()
        standalone_violations += check_store_cost()
        standalone_violations += check_explore_cost()
        standalone_violations += check_fuzz_cost()
    if not args.skip_campaign:
        standalone_violations += check_campaign_determinism()

    if not os.path.exists(args.baseline):
        if standalone_violations:
            for violation in standalone_violations:
                print(f"REGRESSION: {violation}", file=sys.stderr)
            return 1
        print(f"check_regression: no baseline at {args.baseline}; nothing to check")
        return 0
    baseline_document = _load_document(args.baseline)
    baseline = _load_rows(args.baseline)

    document_violations = check_committed_document(args.baseline)
    memory_violations: List[str] = []
    if not args.skip_memory:
        memory_violations = check_memory_regression(baseline_document)

    if args.fresh is not None:
        if not os.path.exists(args.fresh):
            print(f"check_regression: fresh file not found: {args.fresh}", file=sys.stderr)
            return 2
        fresh = _load_rows(args.fresh)
    else:
        from benchmarks.bench_perf_scaling import (
            FULL_SWEEP,
            SMOKE_SWEEP,
            run_sweep,
        )

        configs = SMOKE_SWEEP if args.smoke else FULL_SWEEP
        document = run_sweep(configs)
        fresh = {(r["processes"], r["messages"]): r for r in document["rows"]}

    violations = (
        standalone_violations
        + document_violations
        + memory_violations
        + compare(
            baseline,
            fresh,
            threshold=args.threshold,
            absolute=args.absolute,
            min_seconds=args.min_seconds,
        )
    )
    if violations:
        for violation in violations:
            print(f"REGRESSION: {violation}", file=sys.stderr)
        return 1
    campaign_note = "skipped" if args.skip_campaign else "deterministic"
    memory_note = "skipped" if args.skip_memory else "within threshold"
    print(
        f"check_regression: {len(fresh)} row(s) within threshold, "
        f"session scaling, recording-path, message-path (untraced, traced), "
        f"held-bytes (failure-free, crashes), released-history, scheduled-workload, "
        f"link-bytes, trace-codec, replay-path, history-tracking, replay-bytes, "
        f"retained-set, "
        f"store-cost, explorer and fuzzer gates "
        f"{'ok' if args.smoke else 'skipped (--smoke only)'}, "
        f"campaign gate {campaign_note}, memory gate {memory_note} — ok"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
