"""Trace loading and replay.

:class:`TraceReader` parses a persisted trace and replays it, record by
record, into a fresh :class:`repro.simulation.trace.TraceRecorder` — driving
the exact public recording API the live simulation drove, in the exact order
it drove it.  Because the recorder's incremental CCP substrate is a pure
function of that call sequence, the replayed recorder is indistinguishable
from the live one: same event log, same checkpoint dependency vectors, same
message intervals, same memoised CCP, and therefore the same analysis cache
results (zigzag kernel, Theorem-1/2 retained sets, recovery lines).  The
round-trip property tests assert this byte for byte.

Cheap consumers (campaign re-aggregation, ``inspect`` on huge traces) can use
:meth:`TraceReader.summary` instead, which reads only the header and footer
without materialising a recorder.

Lines are parsed one at a time by :func:`repro.traceio.format.decode_line`
(the scanner ``json.loads`` delegates to, without its per-call wrappers) —
never joined, so a line either is one complete JSON document or is damage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from json import JSONDecodeError
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ccp.consistency import GlobalCheckpoint
from repro.ccp.pattern import CCP
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan
from repro.simulation.trace import TraceRecorder
from repro.traceio.format import (
    TAG_CHECKPOINT,
    TAG_DUPLICATE,
    TAG_INTERNAL,
    TAG_JOIN,
    TAG_LEAVE,
    TAG_PARTITION,
    TAG_RECEIVE,
    TAG_RECOVERY,
    TAG_SAMPLE,
    TAG_SEND,
    RunProvenance,
    TraceFormatError,
    TraceTruncatedError,
    decode_line,
    metrics_from_record,
    validate_header,
    validate_record,
)


@dataclass
class ReplayedTrace:
    """A persisted trace rehydrated into live analysis objects."""

    path: str
    header: Dict[str, Any]
    recorder: TraceRecorder
    samples: List[Tuple[float, Tuple[int, ...]]]
    recovery_plans: List[RollbackPlan]
    footer: Optional[Dict[str, Any]]
    #: ``(kind, time, groups)`` of every partition cut/heal the run recorded.
    partition_events: List[Tuple[str, float, Tuple[Tuple[int, ...], ...]]] = field(
        default_factory=list
    )
    truncated: bool = False

    @property
    def num_processes(self) -> int:
        """Number of processes of the replayed execution."""
        return self.recorder.num_processes

    @property
    def meta(self) -> Dict[str, Any]:
        """The free-form provenance attached at record time (campaign cell…)."""
        return dict(self.header.get("meta") or {})

    @property
    def status(self) -> str:
        """``ok``/``aborted`` from the footer, or ``truncated`` without one."""
        if self.footer is None:
            return "truncated"
        return str(self.footer.get("status", "ok"))

    @property
    def result_record(self) -> Optional[Dict[str, Any]]:
        """The persisted scalar result record (None for aborted/truncated runs)."""
        if self.footer is None:
            return None
        return self.footer.get("result")

    @property
    def metrics(self) -> Optional[Dict[str, float]]:
        """The persisted per-cell campaign metrics, if the run completed."""
        if self.footer is None:
            return None
        return self.footer.get("metrics")

    def ccp(self, *, with_final_volatile_dvs: bool = False) -> CCP:
        """The CCP of the replayed execution.

        With ``with_final_volatile_dvs`` the footer's recorded end-of-run
        dependency vectors are attached to the volatile checkpoints, which is
        what makes the replayed pattern identical to the live run's *final*
        audit CCP (not just to its stable part).
        """
        if not with_final_volatile_dvs:
            return self.recorder.ccp()
        if self.footer is None or "final_volatile_dvs" not in self.footer:
            raise TraceTruncatedError(
                f"{self.path}: no final volatile vectors in the footer "
                f"(aborted or truncated trace)"
            )
        volatile = {
            pid: tuple(dv)
            for pid, dv in enumerate(self.footer["final_volatile_dvs"])
        }
        return self.recorder.ccp(volatile_dvs=volatile)


def _recorder_for_header(header: Dict[str, Any], path: str) -> TraceRecorder:
    """A fresh recorder matching the header's capacity and membership.

    Headers without a ``membership`` key (every trace written before
    dynamic membership, and every static-membership trace after) get the
    plain all-members recorder; a ``membership`` key restricts the initial
    member set so replayed ``j``/``l`` records land on the same view
    state the live run had.
    """
    num_processes = header["num_processes"]
    description = header.get("membership")
    if not description:
        return TraceRecorder(num_processes)
    from repro.membership import MembershipSchedule

    try:
        schedule = MembershipSchedule.from_description(description)
        schedule.validate_for(num_processes)
    except (TypeError, ValueError) as exc:  # MembershipError is a ValueError
        raise TraceFormatError(f"{path}: header membership: {exc}") from exc
    return TraceRecorder(
        num_processes,
        initial_members=schedule.initial_members(num_processes),
    )


def apply_event_record(recorder: TraceRecorder, record: Sequence[Any]) -> bool:
    """Drive ``recorder`` with one v2 *event* record (``s`` ``r`` ``d`` ``c``
    ``i``); False, with nothing done, for any other tag.  The one applier of
    these tags: trace replay and the live shard merge both go through it."""
    tag = record[0]
    if tag == TAG_SEND:
        _, sender, receiver, message_id, time = record
        recorder.record_send(sender, receiver, message_id, time)
    elif tag == TAG_RECEIVE:
        _, message_id, time = record
        recorder.record_receive(message_id, time)
    elif tag == TAG_DUPLICATE:
        _, message_id, time = record
        recorder.record_duplicate_receive(message_id, time)
    elif tag == TAG_CHECKPOINT:
        _, pid, index, forced, time, dv = record
        recorder.record_checkpoint(pid, index, tuple(dv), forced=bool(forced), time=time)
    elif tag == TAG_INTERNAL:
        _, pid, time = record
        recorder.record_internal(pid, time)
    else:
        return False
    return True


class TraceReader:
    """Parses and replays one persisted trace file."""

    def __init__(self, path: str) -> None:
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        self._path = path

    @property
    def path(self) -> str:
        """Location of the trace file."""
        return self._path

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def lines(self) -> Iterator[Tuple[int, Any]]:
        """Yield ``(line_number, parsed_json)`` for every line of the file.

        Streams the file (one line in memory at a time — traces can be
        large).  A half-written *final* line (killed writer) terminates the
        iteration with :class:`TraceTruncatedError`; an unparseable line
        followed by further content raises :class:`TraceFormatError`.
        """
        bad: Optional[Tuple[int, JSONDecodeError]] = None
        with open(self._path, "r", encoding="utf-8") as handle:
            for index, raw in enumerate(handle):
                stripped = raw.strip()
                if not stripped:
                    continue
                if bad is not None:
                    line, exc = bad
                    raise TraceFormatError(
                        f"{self._path}:{line}: unparseable line"
                    ) from exc
                try:
                    parsed = decode_line(stripped)
                except JSONDecodeError as exc:
                    bad = (index + 1, exc)
                    continue
                yield index + 1, parsed
        if bad is not None:
            line, exc = bad
            raise TraceTruncatedError(
                f"{self._path}: half-written final line "
                f"(record {line}) — the writer was killed"
            ) from exc

    def header(self) -> Dict[str, Any]:
        """Parse and validate the header line only."""
        for _, parsed in self.lines():
            return validate_header(parsed, path=self._path)
        raise TraceFormatError(f"{self._path}: empty trace file")

    def summary(self) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """``(header, footer)`` without replaying; footer is None if absent.

        Body records (JSON arrays) are skipped *without parsing* — this is
        the cheap path campaign re-aggregation and ``inspect`` take over
        large artifact sets.
        """
        header: Optional[Dict[str, Any]] = None
        footer: Optional[Dict[str, Any]] = None
        with open(self._path, "r", encoding="utf-8") as handle:
            for index, raw in enumerate(handle):
                stripped = raw.strip()
                if not stripped:
                    continue
                if footer is not None:
                    raise TraceFormatError(
                        f"{self._path}:{index + 1}: record after the footer"
                    )
                if header is not None and stripped.startswith("["):
                    continue  # body record — content irrelevant here
                try:
                    parsed = decode_line(stripped)
                except JSONDecodeError:
                    continue  # half-written tail of a killed writer
                if header is None:
                    header = validate_header(parsed, path=self._path)
                elif isinstance(parsed, dict):
                    if "footer" not in parsed:
                        raise TraceFormatError(
                            f"{self._path}:{index + 1}: unexpected object record"
                        )
                    footer = parsed["footer"]
        if header is None:
            raise TraceFormatError(f"{self._path}: empty trace file")
        return header, footer

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, *, allow_partial: bool = False) -> ReplayedTrace:
        """Rehydrate the trace into a fully-populated :class:`TraceRecorder`.

        ``allow_partial`` tolerates a missing footer and a half-written final
        record (the state of a killed run): everything before the damage is
        replayed and :attr:`ReplayedTrace.truncated` is set.  Without it, a
        trace that does not end in a footer whose counts match the body
        raises :class:`TraceTruncatedError`; structural damage anywhere
        raises :class:`TraceFormatError` in either mode.
        """
        header: Optional[Dict[str, Any]] = None
        footer: Optional[Dict[str, Any]] = None
        recorder: Optional[TraceRecorder] = None
        samples: List[Tuple[float, Tuple[int, ...]]] = []
        plans: List[RollbackPlan] = []
        partitions: List[Tuple[str, float, Tuple[Tuple[int, ...], ...]]] = []
        records = 0
        events = 0
        truncated = False
        try:
            for line, parsed in self.lines():
                if header is None:
                    header = validate_header(parsed, path=self._path)
                    recorder = _recorder_for_header(header, self._path)
                    continue
                if footer is not None:
                    raise TraceFormatError(
                        f"{self._path}:{line}: record after the footer"
                    )
                if isinstance(parsed, dict):
                    if "footer" not in parsed:
                        raise TraceFormatError(
                            f"{self._path}:{line}: unexpected object record"
                        )
                    footer = parsed["footer"]
                    continue
                record = validate_record(parsed, line=line, path=self._path)
                records += 1
                assert recorder is not None
                try:
                    if apply_event_record(recorder, record):
                        events += 1
                    else:
                        self._apply(recorder, record, samples, plans, partitions)
                except TraceFormatError:
                    raise
                except Exception as exc:
                    raise TraceFormatError(
                        f"{self._path}:{line}: record is inconsistent with the "
                        f"replayed history ({type(exc).__name__}: {exc})"
                    ) from exc
        except TraceTruncatedError:
            if not allow_partial:
                raise
            truncated = True
        if header is None or recorder is None:
            raise TraceFormatError(f"{self._path}: empty trace file")
        if footer is None:
            truncated = True
            if not allow_partial:
                raise TraceTruncatedError(
                    f"{self._path}: no footer — the trace was cut short"
                )
        else:
            for key, expected, actual in (
                ("records", footer.get("records"), records),
                ("events", footer.get("events"), events),
            ):
                if expected != actual:
                    if allow_partial:
                        truncated = True
                        break
                    raise TraceTruncatedError(
                        f"{self._path}: footer says {expected} {key}, "
                        f"file contains {actual} — records are missing"
                    )
        return ReplayedTrace(
            path=self._path,
            header=header,
            recorder=recorder,
            samples=samples,
            recovery_plans=plans,
            footer=footer,
            partition_events=partitions,
            truncated=truncated,
        )

    def _apply(
        self,
        recorder: TraceRecorder,
        record: List[Any],
        samples: List[Tuple[float, Tuple[int, ...]]],
        plans: List[RollbackPlan],
        partitions: List[Tuple[str, float, Tuple[Tuple[int, ...], ...]]],
    ) -> None:
        """Replay one record that is not a recorder event."""
        tag = record[0]
        if tag == TAG_JOIN:
            _, pid, time = record
            recorder.record_join(pid, time)
        elif tag == TAG_LEAVE:
            _, pid, time = record
            recorder.record_leave(pid, time)
        elif tag == TAG_RECOVERY:
            _, faulty, line_indices, rollbacks, last_interval = record
            plan = RollbackPlan(
                faulty=tuple(faulty),
                recovery_line=GlobalCheckpoint(tuple(line_indices)),
                rollbacks=tuple(
                    ProcessRollback(pid=pid, rollback_index=index)
                    for pid, index in rollbacks
                ),
                last_interval_vector=tuple(last_interval),
            )
            recorder.apply_recovery(plan)
            plans.append(plan)
        elif tag == TAG_SAMPLE:
            _, time, retained = record
            samples.append((time, tuple(retained)))
        elif tag == TAG_PARTITION:
            _, kind, time, groups = record
            partitions.append((kind, time, tuple(tuple(g) for g in groups)))
        else:
            raise TraceFormatError(f"{self._path}: unknown record tag {tag!r}")


# ----------------------------------------------------------------------
# Analysis rendering
# ----------------------------------------------------------------------
def analysis_table(recorder: TraceRecorder, *, title: str = "Trace analysis"):
    """A per-process analysis table derived from a (replayed) recorder.

    One row per process: event and checkpoint counts, the recovery line of
    the single-fault failure ``{pid}`` and the ground-truth dependency vector
    of the last stable checkpoint.  The table is a pure function of the
    recorder state, so rendering it for a live run and for its replayed
    trace must produce byte-identical text — the round-trip tests' most
    end-to-end check.
    """
    from repro.analysis.tables import TextTable

    ccp = recorder.ccp()
    analyses = ccp.analyses
    useless = analyses.useless_checkpoints
    table = TextTable(
        ["pid", "events", "stable", "last", "useless", "recovery_line({pid})", "dv(last)"],
        title=title,
    )
    for pid in ccp.processes:
        last = ccp.last_stable(pid)
        if last >= 0:
            line = analyses.recovery_line(frozenset((pid,)))
            line_text = "(" + ",".join(str(i) for i in line.indices) + ")"
            dv = ccp.ground_truth_dv(ccp.last_stable_id(pid))
            dv_text = "(" + ",".join(str(v) for v in dv) + ")"
        else:
            line_text = "-"
            dv_text = "-"
        table.add_row(
            pid,
            len(recorder.log.history(pid)),
            len(ccp.stable_ids(pid)),
            last,
            sum(1 for cid in useless if cid.pid == pid),
            line_text,
            dv_text,
        )
    return table


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def verify_trace(path: str) -> List[str]:
    """:func:`verify_replayed` on ``path`` replayed with ``allow_partial``."""
    return verify_replayed(TraceReader(path).replay(allow_partial=True))


def verify_replayed(replayed: ReplayedTrace) -> List[str]:
    """Self-consistency audit of a replayed trace (empty list == pass).

    Checks the invariants a freshly written trace must satisfy: the footer is
    present with matching record/event counts (replay enforces that), the
    replayed event log contains exactly the footer's event count, the body's
    recovery sessions match the footer result, and the footer metrics equal
    the metrics re-derived from the footer's result record.  Of the paper it
    checks the space bound: under RDT-LGC no storage sample shows a process
    retaining more than ``n`` checkpoints.
    """
    path = replayed.path
    violations: List[str] = []
    if replayed.footer is None:
        return [f"{path}: trace is truncated (no footer)"]
    footer = replayed.footer
    if replayed.truncated:
        violations.append(
            f"{path}: footer counts disagree with the records present "
            f"(body is damaged or truncated)"
        )
    log_events = replayed.recorder.log.total_events()
    result = footer.get("result")
    if footer.get("status") == "ok":
        if result is None:
            # Scripted captures seal without a result; only a footer that
            # carries metrics but no result record is inconsistent.
            if footer.get("metrics") is not None:
                violations.append(f"{path}: footer has metrics but no result record")
        else:
            if result.get("recoveries") != len(replayed.recovery_plans):
                violations.append(
                    f"{path}: footer result says {result.get('recoveries')} "
                    f"recoveries, body replayed {len(replayed.recovery_plans)}"
                )
            if footer.get("metrics") != metrics_from_record(result):
                violations.append(
                    f"{path}: footer metrics disagree with the metrics "
                    f"re-derived from the footer result record"
                )
    # The recorder truncates history at recovery lines, so the log can hold
    # fewer events than were written — never more.
    if log_events > footer.get("events", 0):
        violations.append(
            f"{path}: replayed log has {log_events} events but the footer "
            f"only accounts for {footer.get('events')}"
        )
    if replayed.header.get("collector") == RdtLgcCollector.name:
        bound = replayed.num_processes
        for time, retained in replayed.samples:
            for pid, count in enumerate(retained):
                if count > bound:
                    violations.append(
                        f"{path}: the storage sample at time {time} has process {pid} "
                        f"retaining {count} checkpoints, over RDT-LGC's bound of n = {bound}"
                    )
    return violations


# ----------------------------------------------------------------------
# Campaign re-aggregation
# ----------------------------------------------------------------------
TRACE_SUFFIX = ".trace.jsonl"


def campaign_records_from_traces(directory: str) -> List[Dict[str, Any]]:
    """Rebuild campaign store records from a directory of cell traces.

    Each ``*.trace.jsonl`` written by a traced campaign sweep carries its
    cell's identity, canonical parameters and grid-expansion index in the
    header ``meta`` and its metrics in the footer.  The returned records are
    sorted by expansion index, so aggregating them is byte-identical to
    aggregating the live sweep — no re-simulation involved.
    """
    names = sorted(n for n in os.listdir(directory) if n.endswith(TRACE_SUFFIX))
    if not names:
        raise FileNotFoundError(f"no {TRACE_SUFFIX} files in {directory!r}")
    entries: List[Tuple[Any, Dict[str, Any]]] = []
    for name in names:
        path = os.path.join(directory, name)
        header, footer = TraceReader(path).summary()
        meta = header.get("meta") or {}
        provenance = RunProvenance.from_meta(meta)
        if provenance is None or provenance.kind != "campaign":
            raise TraceFormatError(
                f"{path}: trace carries no campaign cell identity in its "
                f"header meta — was it written outside a campaign sweep?"
            )
        record: Dict[str, Any] = {
            "cell_id": provenance.fields["cell_id"],
            "params": provenance.fields["params"],
            "trace": name,
        }
        if footer is None:
            record["status"] = "failed"
            record["error"] = "trace is truncated (no footer)"
        elif footer.get("status") == "ok":
            record["status"] = "ok"
            record["metrics"] = footer["metrics"]
        else:
            record["status"] = "failed"
            record["error"] = footer.get("error", "aborted")
        order = provenance.fields.get("cell_index")
        entries.append(
            (order if order is not None else provenance.fields["cell_id"], record)
        )
    if all(isinstance(order, int) for order, _ in entries):
        entries.sort(key=lambda item: item[0])
    else:
        entries.sort(key=lambda item: str(item[0]))
    return [record for _, record in entries]
