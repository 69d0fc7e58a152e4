"""The on-disk trace format: constants, record codecs and error types.

A persisted trace is a JSONL file with three kinds of lines:

* **header** (first line, a JSON object): format magic, format version,
  process count, and the full provenance of the run — engine seed, protocol,
  collector (with options), workload description, network parameters, the
  injected failure schedule, plus free-form ``meta`` (campaign cell identity
  when the trace was produced by a campaign sweep);
* **records** (middle lines, JSON arrays): compact tagged tuples, one per
  recorded occurrence, appended — each handed to the OS in full before the
  recording call returns — in the exact order the live
  :class:`repro.simulation.trace.TraceRecorder` observed them, which is what
  makes replay deterministic;
* **footer** (last line, a JSON object under the ``"footer"`` key): record
  and event counts (truncation detection), the run's scalar result record and
  derived per-cell metrics, the final volatile dependency vectors, and the
  completion status.

Record tags
-----------

======  ============================================================
tag     payload
======  ============================================================
``s``   ``[sender, receiver, message_id, time]`` — application send
``r``   ``[message_id, time]`` — delivery of a message
``d``   ``[message_id, time]`` — delivery of a *duplicate* copy of an
        already-received message (at-least-once channels; replays as a
        causally-neutral internal event at the receiver)
``c``   ``[pid, index, forced, time, [dv...]]`` — stable checkpoint
        with the dependency vector the middleware stored with it
``i``   ``[pid, time]`` — internal application event
``v``   ``[[faulty...], [line...], [[pid, index]...], [li...]]`` —
        recovery session: faulty set, recovery line, rollback
        directives and the last-interval vector of Algorithm 3
``S``   ``[time, [retained...]]`` — storage occupancy sample
``p``   ``[kind, time, [[pid...]...]]`` — partition transition
        (``kind`` is ``cut`` or ``heal``); provenance only, replay
        collects but does not feed them to the recorder
``j``   ``[pid, time]`` — a process joined the membership
``l``   ``[pid, time]`` — a process left the membership permanently
======  ============================================================

Versioning: :data:`FORMAT_VERSION` is bumped whenever a record's shape
changes incompatibly.  Version 2 added the ``d``/``p`` records and the
fault-model provenance in the header ``network`` object (channel model,
partition schedule, FIFO discipline — absent for the default uniform
transport, so default-config headers are byte-identical to version 1's).
Membership records (``j``/``l``) and the header ``membership`` key are a
backward-compatible extension of version 2: traces without membership
events carry neither and parse exactly as before, so the version is not
bumped.  Version-1 traces remain readable (their tag set is a strict
subset).
Readers refuse newer versions (:class:`TraceVersionError`) rather than
misinterpreting records, and refuse structurally invalid content
(:class:`TraceFormatError`) rather than replaying a corrupted history.
A file whose footer is missing, or whose footer counts disagree with
the records actually present, raises :class:`TraceTruncatedError`
unless the caller opts into partial replay.

The codec
---------

This module is the only place that turns a document into a line's bytes or a
line back into a document; :class:`~repro.traceio.writer.TraceWriter`,
:class:`~repro.traceio.reader.TraceReader` and the live backend's shards
(:mod:`repro.live.shard`) are users of it.  Every line is what ``json.dumps``
with ``separators=(",", ":")`` produces and what ``json.loads`` accepts — the
codec only removes the per-line plumbing around the same C encoder and
scanner.  :func:`encode_document` is one shared
``JSONEncoder``; the four records a run emits by the ten-thousand
(:func:`encode_send`, :func:`encode_receive`, :func:`encode_checkpoint`,
:func:`encode_sample`) are formatted directly when every argument is exactly
an ``int`` or a finite ``float`` (``float.__repr__`` is what ``json`` emits)
and fall back to :func:`encode_document` otherwise, so ``True``,
``numpy.int64`` or ``inf`` read and raise exactly as they do there.
:func:`decode_line` runs one shared ``JSONDecoder``'s scanner over one
stripped line; lines are never joined before parsing, because ``[1,[2]`` /
``[3]]`` would then read as records.  :func:`read_lines` applies it to every
line of a file under the one torn-line rule that traces and live shards share:
only the final line may be half-written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

# Re-exported: the result record and its metrics are defined once, next to
# SimulationResult.
from repro.simulation.runner import metrics_from_record, result_to_record  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import SimulationConfig

#: Magic string identifying trace files (header ``format`` key).
FORMAT_NAME = "repro-trace"

#: Current trace format version.  Bump on incompatible record changes.
#: Version 2: duplicate-delivery (``d``) and partition (``p``) records,
#: fault-model provenance in the header ``network`` object.
FORMAT_VERSION = 2

#: Record tags (first element of every record array).
TAG_SEND = "s"
TAG_RECEIVE = "r"
TAG_DUPLICATE = "d"
TAG_CHECKPOINT = "c"
TAG_INTERNAL = "i"
TAG_RECOVERY = "v"
TAG_SAMPLE = "S"
TAG_PARTITION = "p"
TAG_JOIN = "j"
TAG_LEAVE = "l"

#: The tags the current version knows how to replay, each with its record's
#: number of fields (tag included).
RECORD_ARITY = {
    TAG_SEND: 5,
    TAG_RECEIVE: 3,
    TAG_DUPLICATE: 3,
    TAG_CHECKPOINT: 6,
    TAG_INTERNAL: 3,
    TAG_RECOVERY: 5,
    TAG_SAMPLE: 3,
    TAG_PARTITION: 4,
    TAG_JOIN: 3,
    TAG_LEAVE: 3,
}


class TraceError(Exception):
    """Base class of every trace I/O failure."""


class TraceFormatError(TraceError):
    """The file is not a trace, or contains structurally invalid content."""


class TraceVersionError(TraceFormatError):
    """The trace was written by a newer (unknown) format version."""


class TraceTruncatedError(TraceError):
    """The trace ends before its footer (killed writer, partial copy)."""


# ----------------------------------------------------------------------
# Run provenance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunProvenance:
    """The provenance identity a driver attaches to a trace header ``meta``.

    One constructor per driver — campaign sweeps, the schedule-space
    explorer, live (multi-process) runs — and one :meth:`to_meta` encoding,
    so the header shape each driver emits is defined in exactly one place
    instead of being hand-assembled at every call site.  :meth:`from_meta`
    inverts the encoding (a round-trip test pins the two together), which is
    what campaign re-aggregation and ``traceio inspect`` parse.

    The encodings are byte-compatible with the dicts the drivers emitted
    before this helper existed, so pre-existing artifacts parse identically:

    * campaign — ``{"campaign", "cell_id", "params"[, "cell_index"]}``;
    * explore  — ``{"explorer": {"config", "schedule", ...}}``;
    * live     — ``{"live": {...}}`` (coordinator/merge parameters).
    """

    kind: str
    fields: Dict[str, Any]

    KINDS = ("campaign", "explore", "live")

    @classmethod
    def campaign_cell(
        cls,
        *,
        campaign: str,
        cell_id: str,
        params: Mapping[str, Any],
        cell_index: Optional[int] = None,
        worker: Optional[str] = None,
        attempt: Optional[int] = None,
    ) -> "RunProvenance":
        """Identity of one campaign grid cell.

        ``worker``/``attempt`` carry the lease provenance — which claimer
        executed the cell and on which attempt.  They are recorded only when
        present (a cell executed outside a lease carries neither), and they
        never participate in cell identity: a cell re-run after a lease
        expiry differs from the original artifact only here.
        """
        fields: Dict[str, Any] = {
            "campaign": campaign,
            "cell_id": cell_id,
            "params": dict(params),
        }
        if cell_index is not None:
            fields["cell_index"] = cell_index
        if worker is not None:
            fields["worker"] = worker
        if attempt is not None:
            fields["attempt"] = attempt
        return cls("campaign", fields)

    @classmethod
    def explorer(
        cls,
        *,
        config: Mapping[str, Any],
        schedule: Sequence[Sequence[Any]],
        extra: Optional[Mapping[str, Any]] = None,
    ) -> "RunProvenance":
        """Identity of one explored schedule (configuration + choice list)."""
        fields: Dict[str, Any] = {
            "config": dict(config),
            "schedule": [list(token) for token in schedule],
        }
        if extra:
            fields.update(extra)
        return cls("explore", fields)

    @classmethod
    def live_run(cls, **fields: Any) -> "RunProvenance":
        """Identity of one live multi-process run (coordinator parameters)."""
        return cls("live", dict(fields))

    def to_meta(self) -> Dict[str, Any]:
        """The header ``meta`` dict this provenance encodes to."""
        if self.kind == "campaign":
            return dict(self.fields)
        if self.kind == "explore":
            return {"explorer": dict(self.fields)}
        if self.kind == "live":
            return {"live": dict(self.fields)}
        raise ValueError(f"unknown provenance kind {self.kind!r}")

    @classmethod
    def from_meta(cls, meta: Mapping[str, Any]) -> Optional["RunProvenance"]:
        """Parse a header ``meta`` dict; None if no known driver wrote it."""
        if "explorer" in meta:
            return cls("explore", dict(meta["explorer"]))
        if "live" in meta:
            return cls("live", dict(meta["live"]))
        if "cell_id" in meta and "params" in meta:
            fields = {}
            if "campaign" in meta:
                fields["campaign"] = meta["campaign"]
            fields["cell_id"] = meta["cell_id"]
            fields["params"] = meta["params"]
            if "cell_index" in meta:
                fields["cell_index"] = meta["cell_index"]
            return cls("campaign", fields)
        return None


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def make_header(
    config: "SimulationConfig", *, meta: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The header object for a run of ``config``.

    The workload is recorded descriptively (its class name; campaign traces
    carry the full declarative parameters in ``meta``): replay never
    re-generates actions — the recorded events *are* the execution — so the
    header only needs enough to identify the run, not to re-run it.

    The execution backend appears as an extra ``backend`` key only for
    non-default (non-``sim``) backends, so every pre-existing simulated
    trace header keeps its exact shape.
    """
    header: Dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "num_processes": config.num_processes,
        "duration": config.duration,
        "seed": config.seed,
        "protocol": config.protocol,
        "collector": config.collector,
        "collector_options": dict(config.collector_options),
        "workload": type(config.workload).__name__,
        # Full fault-model provenance: channel model, partition schedule and
        # FIFO discipline appear as extra keys only when present, so default
        # uniform-transport headers keep their version-1 shape.
        "network": config.network.describe(),
        "failure_schedule": [[crash.time, crash.pid] for crash in config.failures],
        "audit": config.audit,
        "meta": dict(meta or config.trace_meta),
    }
    if config.backend != "sim":
        header["backend"] = config.backend
    # Membership provenance only when dynamic: static-membership headers
    # keep their exact pre-membership shape (and byte identity).
    if config.membership:
        header["membership"] = config.membership.describe()
    return header


def make_scripted_header(
    num_processes: int,
    *,
    seed: Optional[int] = None,
    workload: str = "scripted",
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A header for traces captured outside the simulation runner.

    Used by drivers that feed a :class:`TraceRecorder` directly (scripted
    figures, the perf benchmark's random CCP scripts): there is no protocol,
    collector or network — only the recorded pattern itself.
    """
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "num_processes": num_processes,
        "duration": None,
        "seed": seed,
        "protocol": "scripted",
        "collector": "none",
        "collector_options": {},
        "workload": workload,
        "network": None,
        "failure_schedule": [],
        "audit": "off",
        "meta": dict(meta or {}),
    }


def validate_header(header: Any, *, path: str = "<trace>") -> Dict[str, Any]:
    """Check magic, version and required keys; return the header dict."""
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceFormatError(f"{path}: not a {FORMAT_NAME} file")
    version = header.get("version")
    if not isinstance(version, int) or version < 1:
        raise TraceFormatError(f"{path}: malformed trace version {version!r}")
    if version > FORMAT_VERSION:
        raise TraceVersionError(
            f"{path}: trace format version {version} is newer than the "
            f"supported version {FORMAT_VERSION}"
        )
    num_processes = header.get("num_processes")
    if type(num_processes) is not int or num_processes <= 0:
        raise TraceFormatError(f"{path}: invalid num_processes {num_processes!r}")
    return header


# ----------------------------------------------------------------------
# Footer
# ----------------------------------------------------------------------
def make_footer(
    *,
    records: int,
    events: int,
    status: str,
    result: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, float]] = None,
    final_volatile_dvs: Optional[Sequence[Sequence[int]]] = None,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    """The footer object; ``records``/``events`` enable truncation checks."""
    footer: Dict[str, Any] = {
        "records": records,
        "events": events,
        "status": status,
    }
    if result is not None:
        footer["result"] = result
    if metrics is not None:
        footer["metrics"] = metrics
    if final_volatile_dvs is not None:
        footer["final_volatile_dvs"] = [list(dv) for dv in final_volatile_dvs]
    if error is not None:
        footer["error"] = error
    return {"footer": footer}


#: The field rule of each tag, as a refused record's message states it:
#: pids, ids and indices are exactly ``int`` (``true`` is not ``1``), a time is
#: an ``int`` or ``float``, a vector holds ``n`` (the header's
#: ``num_processes``) non-negative ``int``\ s.
FIELD_RULES = {
    TAG_SEND: "sender, receiver and message id are ints, time is an int or float",
    TAG_RECEIVE: "message id is an int, time is an int or float",
    TAG_DUPLICATE: "message id is an int, time is an int or float",
    TAG_CHECKPOINT: (
        "pid and index are ints, forced is 0 or 1, time is an int or float, "
        "the vector holds {n} non-negative ints"
    ),
    TAG_INTERNAL: "pid is an int, time is an int or float",
    TAG_RECOVERY: (
        "faulty is a list of ints, the recovery line {n} ints, each rollback "
        "an [int, int] pair, the last-interval vector {n} ints"
    ),
    TAG_SAMPLE: "time is an int or float, retained holds {n} non-negative ints",
    TAG_PARTITION: (
        "kind is 'cut' or 'heal', time is an int or float, groups is a list "
        "of lists of ints"
    ),
    TAG_JOIN: "pid is an int, time is an int or float",
    TAG_LEAVE: "pid is an int, time is an int or float",
}


def record_refusal(record: Any, num_processes: int) -> str:
    """Why ``record`` is refused in a trace of ``num_processes`` processes: its
    shape, else its tag's :data:`FIELD_RULES` (no location: the caller adds it)."""
    if not isinstance(record, (list, tuple)) or not record:
        return "body records must be non-empty JSON arrays"
    tag = record[0]
    # A garbled tag can be a list or an object, which a dict cannot look up.
    arity = RECORD_ARITY.get(tag) if isinstance(tag, str) else None
    if arity is None:
        return f"unknown record tag {tag!r}"
    if arity != len(record):
        return f"{tag!r} record has {len(record)} fields, expected {arity}"
    rule = FIELD_RULES[tag].format(n=num_processes)
    return f"{tag!r} record {list(record)!r} breaks its field rule: {rule}"


def validate_footer(document: Dict[str, Any], *, path: str = "<trace>") -> Dict[str, Any]:
    """The footer of a ``{"footer": ...}`` line, with the fields a reader uses
    checked: integer ``records``/``events``, a string ``status``, and
    ``result``/``metrics`` objects when present.  ``path`` names the line."""
    footer = document["footer"]
    if not isinstance(footer, dict):
        raise TraceFormatError(f"{path}: the footer is not an object")
    for key, kind in (("records", int), ("events", int), ("status", str)):
        if type(footer.get(key)) is not kind:
            raise TraceFormatError(
                f"{path}: footer {key} {footer.get(key)!r} is not of type {kind.__name__}"
            )
    for key in ("result", "metrics"):
        if footer.get(key) is not None and not isinstance(footer[key], dict):
            raise TraceFormatError(f"{path}: footer {key} {footer[key]!r} is not an object")
    return footer


# ----------------------------------------------------------------------
# Line codec
# ----------------------------------------------------------------------
_encode = json.JSONEncoder(separators=(",", ":")).encode
_scan_once = json.JSONDecoder().scan_once

# The direct formats below are json's bytes only for exactly these types and
# finite values: ``True`` would print as ``True``, an int subclass or a numpy
# scalar through its own repr (or not raise), ``inf`` as ``inf``.
_INFINITY = float("inf")
_PLAIN_NUMBERS = (int, float)
_PLAIN_INTS = frozenset((int,))

_SEND = f'["{TAG_SEND}",%d,%d,%d,%a]'.encode()
_RECEIVE = f'["{TAG_RECEIVE}",%d,%a]'.encode()
_CHECKPOINT = f'["{TAG_CHECKPOINT}",%d,%d,%d,%a,[%b]]'.encode()
_SAMPLE = f'["{TAG_SAMPLE}",%a,[%b]]'.encode()


def encode_document(document: Any) -> bytes:
    """One line's bytes (no newline) for any header, footer or record."""
    return _encode(document).encode()


def encode_send(sender: int, receiver: int, message_id: int, time: float) -> bytes:
    """The ``s`` record's bytes."""
    if (
        type(sender) is type(receiver) is type(message_id) is int
        and type(time) in _PLAIN_NUMBERS
        and -_INFINITY < time < _INFINITY
    ):
        return _SEND % (sender, receiver, message_id, time)
    return encode_document([TAG_SEND, sender, receiver, message_id, time])


def encode_receive(message_id: int, time: float) -> bytes:
    """The ``r`` record's bytes."""
    if (
        type(message_id) is int
        and type(time) in _PLAIN_NUMBERS
        and -_INFINITY < time < _INFINITY
    ):
        return _RECEIVE % (message_id, time)
    return encode_document([TAG_RECEIVE, message_id, time])


def encode_checkpoint(
    pid: int, index: int, forced: bool, time: float, dependency_vector: Iterable[int]
) -> bytes:
    """The ``c`` record's bytes."""
    flag = 1 if forced else 0
    vector = list(dependency_vector)
    if (
        type(pid) is type(index) is int
        and type(time) in _PLAIN_NUMBERS
        and -_INFINITY < time < _INFINITY
        and _PLAIN_INTS.issuperset(map(type, vector))
    ):
        return _CHECKPOINT % (pid, index, flag, time, ",".join(map(repr, vector)).encode())
    return encode_document([TAG_CHECKPOINT, pid, index, flag, time, vector])


def encode_sample(time: float, retained_per_process: Iterable[int]) -> bytes:
    """The ``S`` record's bytes."""
    retained = list(retained_per_process)
    if (
        type(time) in _PLAIN_NUMBERS
        and -_INFINITY < time < _INFINITY
        and _PLAIN_INTS.issuperset(map(type, retained))
    ):
        return _SAMPLE % (time, ",".join(map(repr, retained)).encode())
    return encode_document([TAG_SAMPLE, time, retained])


def decode_line(line: str) -> Any:
    """Parse one stripped line; raises ``json.JSONDecodeError`` like ``json.loads``."""
    try:
        document, end = _scan_once(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return document


def read_lines(path: str) -> Iterator[Tuple[int, Any]]:
    """Yield ``(line_number, parsed_json)`` for every non-blank line of ``path``.

    The one torn-line rule of traces and live shards.  Streams the file (one
    line in memory at a time — traces can be large).  A half-written *final*
    line (killed writer) terminates the iteration with
    :class:`TraceTruncatedError`; an unparseable line followed by further
    content raises :class:`TraceFormatError`.  Both name the damaged line.
    Bytes that are not UTF-8 decode to U+FFFD, which is damage anywhere but
    inside a JSON string.
    """
    bad: Optional[Tuple[int, json.JSONDecodeError]] = None
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                parsed = decode_line(raw.strip())
            except json.JSONDecodeError as exc:
                if not raw.strip():
                    continue  # a blank line holds no record
                if bad is None:
                    bad = (number, exc)
                    continue
            if bad is not None:
                line, error = bad
                raise TraceFormatError(f"{path}:{line}: unparseable line") from error
            yield number, parsed
    if bad is not None:
        line, exc = bad
        raise TraceTruncatedError(
            f"{path}:{line}: half-written final line — the writer was killed"
        ) from exc
