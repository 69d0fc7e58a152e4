"""Per-worker trace shards: the durable half of the live trace pipeline.

Each worker incarnation streams every occurrence it observes to its own
shard file — JSONL, one record per line, handed to the OS in full before the
occurrence has any external effect (in particular a send survives a SIGKILL
of the worker *before* its datagram leaves the socket, so across the whole
system a recorded receive always has a recorded send).  Lines are encoded,
written and parsed by the same codec and write discipline as the artifact
(:mod:`repro.traceio.format`, :func:`repro.traceio.writer.write_line`).  The
coordinator merges the shards into one v2 :mod:`repro.traceio` artifact
(:mod:`repro.live.merge`).

Shard lines:

* **header** (first line, object): ``{"shard": 1, "pid", "num_processes",
  "epoch", "incarnation"}``;
* **records** (arrays): ``[epoch, lamport, <traceio body record>]`` — the
  inner record is a v2 event of :mod:`repro.traceio.format` (``s r d c i``)
  or the shard-only ``[“e”, pid, index]``, a collector elimination —
  consumed by the coordinator's storage reconstruction, never emitted into
  the artifact;
* **footer** (object): ``{"shard_footer": {"records", "lamport"}}`` —
  absent when the worker was SIGKILLed, which is normal, not damage.

``(epoch, lamport)`` is the merge key: the Lamport clock ticks on every
recorded occurrence and merges with the sender's clock on every datagram
receipt, so sorting all shards by ``(epoch, lamport, pid, line)`` yields a
linearisation consistent with causality — every receive sorts after its
send, every process's own records stay in program order.

Reading uses the traceio reader's torn-line rule — the same rule, the same
iterator (:func:`repro.traceio.format.read_lines`): only the final line may be
torn.  :func:`read_shard` checks the header, each record's envelope and the
footer's count; body records are checked at the merge, where they are applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.traceio.format import (
    TAG_DUPLICATE,
    TAG_INTERNAL,
    TraceFormatError,
    TraceTruncatedError,
    encode_checkpoint,
    encode_document,
    encode_receive,
    encode_send,
    read_lines,
)
from repro.traceio.writer import open_line_file, write_line

#: Shard-only record tag: a collector eliminated a stable checkpoint.
#: Never part of the merged artifact (eliminations are not trace events);
#: the coordinator replays them to reconstruct a crashed process's storage.
TAG_ELIMINATION = "e"

#: Shard format version (independent of the artifact format version).
SHARD_VERSION = 1


class ShardWriter:
    """Streams one worker incarnation's occurrences to a shard file.

    Implements the :class:`repro.transport.base.TraceRecorderPort` the node
    writes through, plus the Lamport-clock bookkeeping the merge key needs.
    Every line is handed to the OS before the write returns; ``after_send``
    (when set) fires *after* that — the live transport uses it to put the
    datagram on the wire only once a kill of this worker can no longer lose
    the send from the recorded history.
    """

    def __init__(
        self,
        path: str,
        *,
        pid: int,
        num_processes: int,
        epoch: int = 0,
        incarnation: int = 0,
        lamport: int = 0,
    ) -> None:
        self._path = path
        self._pid = pid
        self._epoch = epoch
        self._lamport = lamport
        self._records = 0
        self._closed = False
        self.after_send: Optional[Callable[[int], None]] = None
        header = encode_document(
            {
                "shard": SHARD_VERSION,
                "pid": pid,
                "num_processes": num_processes,
                "epoch": epoch,
                "incarnation": incarnation,
            }
        )
        self._handle = open_line_file(path)
        write_line(self._handle, header)

    # ------------------------------------------------------------------
    # Clock and epoch
    # ------------------------------------------------------------------
    @property
    def lamport(self) -> int:
        """The current Lamport clock value."""
        return self._lamport

    @property
    def epoch(self) -> int:
        """The current recovery epoch."""
        return self._epoch

    def merge_clock(self, observed: int) -> None:
        """Absorb a clock value carried by an incoming datagram."""
        if observed > self._lamport:
            self._lamport = observed

    def set_epoch(self, epoch: int, *, lamport_floor: int = 0) -> None:
        """Enter a new recovery epoch (after a coordinator resume)."""
        self._epoch = epoch
        self.merge_clock(lamport_floor)

    # ------------------------------------------------------------------
    # TraceRecorderPort
    # ------------------------------------------------------------------
    def record_send(
        self, sender: int, receiver: int, message_id: int, time: float
    ) -> None:
        """Record an application send; transmits the datagram once durable."""
        self._record(encode_send(sender, receiver, message_id, time))
        if self.after_send is not None:
            self.after_send(message_id)

    def record_receive(self, message_id: int, time: float) -> None:
        """Record a first-copy delivery."""
        self._record(encode_receive(message_id, time))

    def record_duplicate_receive(self, message_id: int, time: float) -> None:
        """Record a duplicate-copy delivery."""
        self._record(encode_document([TAG_DUPLICATE, message_id, time]))

    def record_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
    ) -> None:
        """Record a stable checkpoint with its stored dependency vector."""
        self._record(encode_checkpoint(pid, index, forced, time, dependency_vector))

    def record_internal(self, pid: int, time: float) -> None:
        """Record an internal event."""
        self._record(encode_document([TAG_INTERNAL, pid, time]))

    def record_elimination(self, pid: int, index: int) -> None:
        """Record a collector elimination (shard-only bookkeeping)."""
        self._record(encode_document([TAG_ELIMINATION, pid, index]))

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the shard footer and close (clean worker shutdown only)."""
        if self._closed:
            return
        write_line(
            self._handle,
            encode_document(
                {"shard_footer": {"records": self._records, "lamport": self._lamport}}
            ),
        )
        self._closed = True
        self._handle.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, record: bytes) -> None:
        """Stamp one encoded record with the merge key and hand it to the OS."""
        self._lamport += 1
        self._records += 1
        write_line(self._handle, b"[%d,%d,%b]" % (self._epoch, self._lamport, record))


class ShardEntry(NamedTuple):
    """One shard record.  Entries sort in the global merge order: by merge
    key, then pid, then line (program order within a shard)."""

    epoch: int
    lamport: int
    pid: int
    line: int
    path: str
    record: Tuple[Any, ...]


@dataclass
class ShardData:
    """One parsed shard file."""

    path: str
    pid: int
    num_processes: int
    epoch: int
    incarnation: int
    entries: List[ShardEntry] = field(default_factory=list)
    #: True when the shard ends in its footer (its writer closed it).
    complete: bool = False


def _header(document: Any, where: str) -> Dict[str, Any]:
    """The shard header, its fields exact non-negative ``int``\\ s, ``pid`` in range."""
    if not isinstance(document, dict) or document.get("shard") != SHARD_VERSION:
        raise TraceFormatError(f"{where}: not a live trace shard")
    for key in ("shard", "pid", "num_processes", "epoch", "incarnation"):
        value = document.get(key)
        if type(value) is not int or value < 0:
            raise TraceFormatError(f"{where}: shard header {key} {value!r} is not an int >= 0")
    if document["pid"] >= document["num_processes"]:
        raise TraceFormatError(f"{where}: shard header pid is not below num_processes")
    return document


def read_shard(path: str) -> ShardData:
    """Parse one shard file, tolerating a torn final line (SIGKILLed writer).

    Every refusal is a :class:`TraceFormatError` naming ``path:line``."""
    lines = read_lines(path)
    for number, parsed in lines:
        header = _header(parsed, f"{path}:{number}")
        break
    else:
        raise TraceFormatError(f"{path}: empty shard file")
    shard = ShardData(
        path, header["pid"], header["num_processes"], header["epoch"], header["incarnation"]
    )
    try:
        for number, parsed in lines:
            if (
                type(parsed) is list
                and len(parsed) == 3
                and type(parsed[0]) is type(parsed[1]) is int
                and min(parsed[0], parsed[1]) >= 0
                and type(parsed[2]) is list
                and parsed[2]
            ):
                epoch, lamport, record = parsed
                shard.entries.append(
                    ShardEntry(epoch, lamport, shard.pid, number, path, tuple(record))
                )
            elif isinstance(parsed, dict) and "shard_footer" in parsed:
                footer = parsed["shard_footer"]
                records = footer.get("records") if isinstance(footer, dict) else None
                if type(records) is not int or records != len(shard.entries):
                    raise TraceFormatError(
                        f"{path}:{number}: shard footer says {records!r} records, "
                        f"the shard holds {len(shard.entries)}"
                    )
                shard.complete = True
                break
            else:
                raise TraceFormatError(
                    f"{path}:{number}: not a record [epoch, lamport, <non-empty list>] "
                    f"with an int merge key >= 0, nor the shard footer"
                )
        for number, _ in lines:
            raise TraceFormatError(f"{path}:{number}: record after the shard footer")
    except TraceTruncatedError:
        pass  # a torn final line: the remnant of a SIGKILLed writer
    return shard
