"""Trace loading and replay.

:class:`TraceReader` parses a persisted trace and replays it, record by
record, into a fresh :class:`repro.simulation.trace.TraceRecorder` — driving
the exact public recording API the live simulation drove, in the exact order
it drove it.  Because the recorder's incremental CCP substrate is a pure
function of that call sequence, the replayed recorder is indistinguishable
from the live one: same event log, same checkpoint dependency vectors, same
message intervals, same memoised CCP, and therefore the same analysis
results (zigzag kernel, Theorem-1/2 retained sets, recovery lines).  The
round-trip property tests assert this byte for byte.  A pattern carries no
volatile vector, so ``replayed.recorder.ccp()`` is the run's final CCP
without the footer's ``final_volatile_dvs``, which nothing reads.

Cheap consumers (campaign re-aggregation, ``inspect`` on huge traces) can use
:meth:`TraceReader.summary` instead, which reads only the header and footer
without materialising a recorder.

Lines are parsed one at a time by :func:`repro.traceio.format.read_lines`
(through :func:`~repro.traceio.format.decode_line`, the scanner
``json.loads`` delegates to, without its per-call wrappers) — never joined,
so a line either is one complete JSON document or is damage; only the final
line may be torn.  Live shards are read by the same iterator.
Each parsed record then takes one pass: :func:`apply_event_record` checks an
event record's fields once and calls the recorder, which builds the log
entry itself.  Every refusal names ``path:line``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from json import JSONDecodeError
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ccp.consistency import GlobalCheckpoint
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.recovery.recovery_line import recovery_line
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
    read_lines,
    record_refusal,
    validate_footer,
    validate_header,
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
    def metrics(self) -> Optional[Dict[str, float]]:
        """The persisted per-cell campaign metrics, if the run completed."""
        if self.footer is None:
            return None
        return self.footer.get("metrics")


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


#: The types a time field may have (exactly: ``True`` is not a time).
_TIMES = (int, float)
_INTS = frozenset((int,))


def _counts(value: Any, length: int) -> bool:
    """Whether ``value`` is a list of ``length`` non-negative ``int``\\ s."""
    return (
        type(value) is list
        and len(value) == length
        and _INTS.issuperset(map(type, value))
        and min(value) >= 0
    )


def _ints(value: Any) -> bool:
    """Whether ``value`` is a list of ``int``\\ s."""
    return type(value) is list and _INTS.issuperset(map(type, value))


def apply_event_record(recorder: TraceRecorder, record: Sequence[Any]) -> bool:
    """Drive ``recorder`` with one non-empty body record if it is an *event*
    (``s`` ``r`` ``d`` ``c`` ``i``); False, with nothing done, for any other tag.

    The one applier of these tags — trace replay (and so ``verify_trace``) and
    the live shard merge both go through it — and the one place their field
    types are checked, once, with their arity
    (:data:`~repro.traceio.format.FIELD_RULES`): pids and ids exactly ``int``,
    a time an ``int`` or ``float``, ``forced`` 0 or 1, a vector
    ``num_processes`` non-negative ``int``\\ s (which the recorder then
    does not scan again).  A record that breaks them
    raises :class:`TraceFormatError` naming no location (the caller knows
    where the record came from).  What the recorder refuses (an unknown
    message, a non-member, an out-of-order index) it raises itself.
    """
    tag = record[0]
    if tag == TAG_SEND:
        if len(record) == 5:
            _, sender, receiver, message_id, time = record
            if type(sender) is type(receiver) is type(message_id) is int and type(time) in _TIMES:
                recorder.record_send(sender, receiver, message_id, time)
                return True
    elif tag == TAG_RECEIVE:
        if len(record) == 3:
            _, message_id, time = record
            if type(message_id) is int and type(time) in _TIMES:
                recorder.record_receive(message_id, time)
                return True
    elif tag == TAG_CHECKPOINT:
        if len(record) == 6:
            _, pid, index, forced, time, dv = record
            if type(pid) is type(index) is type(forced) is int and 0 <= forced <= 1 and (
                type(time) in _TIMES and _counts(dv, recorder.num_processes)
            ):
                recorder.record_checkpoint(
                    pid, index, dv, forced=forced == 1, time=time, exact_ints=True
                )
                return True
    elif tag == TAG_DUPLICATE:
        if len(record) == 3:
            _, message_id, time = record
            if type(message_id) is int and type(time) in _TIMES:
                recorder.record_duplicate_receive(message_id, time)
                return True
    elif tag == TAG_INTERNAL:
        if len(record) == 3:
            _, pid, time = record
            if type(pid) is int and type(time) in _TIMES:
                recorder.record_internal(pid, time)
                return True
    else:
        return False
    raise TraceFormatError(record_refusal(record, recorder.num_processes))


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
        """The file's ``(line_number, parsed_json)`` pairs:
        :func:`~repro.traceio.format.read_lines`."""
        return read_lines(self._path)

    def header(self) -> Dict[str, Any]:
        """Parse and validate the header line only."""
        for _, parsed in self.lines():
            return validate_header(parsed, path=self._path)
        raise TraceFormatError(f"{self._path}: empty trace file")

    def summary(self) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """``(header, footer)`` without replaying; footer is None if absent.

        Body records (JSON arrays) are skipped *without parsing* — this is
        the cheap path campaign re-aggregation and ``inspect`` take over
        large artifact sets.  The lines it does parse follow the torn-line
        rule of :func:`~repro.traceio.format.read_lines`: an unparseable one
        is a killed writer's tail (no footer) only when nothing follows it.
        """
        header: Optional[Dict[str, Any]] = None
        footer: Optional[Dict[str, Any]] = None
        bad = 0
        with open(self._path, "r", encoding="utf-8", errors="replace") as handle:
            for number, raw in enumerate(handle, 1):
                stripped = raw.strip()
                if not stripped:
                    continue
                if bad:
                    # Only the final line may be torn (read_lines' rule).
                    raise TraceFormatError(f"{self._path}:{bad}: unparseable line")
                if footer is not None:
                    raise TraceFormatError(f"{self._path}:{number}: record after the footer")
                if header is not None and stripped.startswith("["):
                    continue  # body record — content irrelevant here
                try:
                    parsed = decode_line(stripped)
                except JSONDecodeError:
                    bad = number  # the half-written tail of a killed writer, if last
                    continue
                if header is None:
                    header = validate_header(parsed, path=self._path)
                elif isinstance(parsed, dict):
                    if "footer" not in parsed:
                        raise TraceFormatError(
                            f"{self._path}:{number}: unexpected object record"
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
        raises :class:`TraceFormatError` in either mode.  Every refusal names
        ``path:line``.

        One pass per line: :func:`~repro.traceio.format.read_lines` parses
        it, :func:`apply_event_record` checks and applies an event,
        :meth:`_apply` everything else.
        """
        path = self._path
        footer: Optional[Dict[str, Any]] = None
        samples: List[Tuple[float, Tuple[int, ...]]] = []
        plans: List[RollbackPlan] = []
        partitions: List[Tuple[str, float, Tuple[Tuple[int, ...], ...]]] = []
        events = others = line = footer_line = 0
        truncated = False
        lines = read_lines(path)
        try:
            for line, parsed in lines:
                header = validate_header(parsed, path=f"{path}:{line}")
                recorder = _recorder_for_header(header, f"{path}:{line}")
                break
            for line, parsed in lines:
                if type(parsed) is list and parsed:
                    try:
                        if apply_event_record(recorder, parsed):
                            events += 1
                        else:
                            others += 1
                            self._apply(recorder, parsed, samples, plans, partitions)
                    except TraceFormatError as exc:
                        raise TraceFormatError(f"{path}:{line}: {exc}") from None
                    except Exception as exc:
                        raise TraceFormatError(
                            f"{path}:{line}: record is inconsistent with the "
                            f"replayed history ({type(exc).__name__}: {exc})"
                        ) from exc
                elif isinstance(parsed, dict):
                    if "footer" not in parsed:
                        raise TraceFormatError(f"{path}:{line}: unexpected object record")
                    footer = validate_footer(parsed, path=f"{path}:{line}")
                    footer_line = line
                    break
                else:
                    raise TraceFormatError(
                        f"{path}:{line}: {record_refusal(parsed, recorder.num_processes)}"
                    )
            for line, _ in lines:
                raise TraceFormatError(f"{path}:{line}: record after the footer")
        except TraceTruncatedError:
            if not allow_partial:
                raise
            truncated = True
        if line == 0:
            raise TraceFormatError(f"{path}: empty trace file")
        if footer is None:
            truncated = True
            if not allow_partial:
                raise TraceTruncatedError(
                    f"{path}:{line}: no footer after the last line — the trace was cut short"
                )
        else:
            for key, expected, actual in (
                ("records", footer["records"], events + others),
                ("events", footer["events"], events),
            ):
                if expected != actual:
                    if allow_partial:
                        truncated = True
                        break
                    raise TraceTruncatedError(
                        f"{path}:{footer_line}: footer says {expected} {key}, "
                        f"file contains {actual} — records are missing"
                    )
        return ReplayedTrace(
            path=path,
            header=header,
            recorder=recorder,
            samples=samples,
            recovery_plans=plans,
            footer=footer,
            partition_events=partitions,
            truncated=truncated,
        )

    @staticmethod
    def _apply(
        recorder: TraceRecorder,
        record: List[Any],
        samples: List[Tuple[float, Tuple[int, ...]]],
        plans: List[RollbackPlan],
        partitions: List[Tuple[str, float, Tuple[Tuple[int, ...], ...]]],
    ) -> None:
        """Check and replay one body record that is not a recorder event."""
        tag = record[0]
        n = recorder.num_processes
        if tag == TAG_SAMPLE and len(record) == 3:
            _, time, retained = record
            if type(time) in _TIMES and _counts(retained, n):
                samples.append((time, tuple(retained)))
                return
        elif tag == TAG_JOIN and len(record) == 3:
            _, pid, time = record
            if type(pid) is int and type(time) in _TIMES:
                recorder.record_join(pid, time)
                return
        elif tag == TAG_LEAVE and len(record) == 3:
            _, pid, time = record
            if type(pid) is int and type(time) in _TIMES:
                recorder.record_leave(pid, time)
                return
        elif tag == TAG_RECOVERY and len(record) == 5:
            _, faulty, line_indices, rollbacks, last_interval = record
            if (
                _ints(faulty)
                and _ints(line_indices)
                and len(line_indices) == n
                and type(rollbacks) is list
                and all(_ints(pair) and len(pair) == 2 for pair in rollbacks)
                and _ints(last_interval)
                and len(last_interval) == n
            ):
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
                return
        elif tag == TAG_PARTITION and len(record) == 4:
            _, kind, time, groups = record
            if (
                kind in ("cut", "heal")
                and type(time) in _TIMES
                and type(groups) is list
                and all(_ints(group) for group in groups)
            ):
                partitions.append((kind, time, tuple(tuple(g) for g in groups)))
                return
        raise TraceFormatError(record_refusal(record, n))


# ----------------------------------------------------------------------
# Analysis rendering
# ----------------------------------------------------------------------
def analysis_table(recorder: TraceRecorder, *, title: str = "Trace analysis"):
    """A per-process analysis table derived from a (replayed) recorder.

    One row per process: event and checkpoint counts, the recovery line of
    the single-fault failure ``{pid}`` (``-`` for a departed process, which
    cannot fail) and the ground-truth dependency vector of the last stable
    checkpoint, read from its knowledge row.  The table is a pure function
    of the recorder state, so rendering it for a live run and for its
    replayed trace must produce byte-identical text — the round-trip tests'
    most end-to-end check.
    """
    from repro.analysis.tables import TextTable

    ccp = recorder.ccp()
    useless = ccp.zigzag.useless_checkpoints()
    table = TextTable(
        ["pid", "events", "stable", "last", "useless", "recovery_line({pid})", "dv(last)"],
        title=title,
    )
    for pid in ccp.processes:
        last = ccp.last_stable(pid)
        line_text = dv_text = "-"
        if last >= 0:
            if pid not in ccp.departed:
                line = recovery_line(ccp, [pid])
                line_text = "(" + ",".join(str(i) for i in line.indices) + ")"
            dv = ccp.analysis_provider.dependency_vector(ccp.last_stable_id(pid))
            dv_text = "(" + ",".join(str(v) for v in dv) + ")"
        table.add_row(
            pid,
            len(recorder.log.history(pid)),
            last + 1,
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
            try:
                derived = metrics_from_record(result)
            except (KeyError, TypeError, ValueError) as exc:
                violations.append(
                    f"{path}: no metrics derive from the footer result record "
                    f"({type(exc).__name__}: {exc})"
                )
            else:
                if footer.get("metrics") != derived:
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
