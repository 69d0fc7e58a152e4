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
  inner record uses exactly the v2 tags/arities of
  :mod:`repro.traceio.format`, plus the shard-only tag ``"e"``
  (``[“e”, pid, index]``, a collector elimination — consumed by the
  coordinator's storage reconstruction, never emitted into the artifact);
* **footer** (object): ``{"shard_footer": {"records", "lamport"}}`` —
  absent when the worker was SIGKILLed, which is normal, not damage.

``(epoch, lamport)`` is the merge key: the Lamport clock ticks on every
recorded occurrence and merges with the sender's clock on every datagram
receipt, so sorting all shards by ``(epoch, lamport, pid, seq)`` yields a
linearisation consistent with causality — every receive sorts after its
send, every process's own records stay in program order.

Reading tolerates truncation *at the end* (a torn final line from a
SIGKILL) but not structural damage before it — mirroring the traceio
reader's ``allow_partial`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json import JSONDecodeError
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.traceio.format import (
    TAG_DUPLICATE,
    TAG_INTERNAL,
    decode_line,
    encode_checkpoint,
    encode_document,
    encode_receive,
    encode_send,
    validate_record,
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


@dataclass(frozen=True)
class ShardEntry:
    """One shard record with its full merge key."""

    epoch: int
    lamport: int
    pid: int
    seq: int
    record: Tuple[Any, ...]

    @property
    def sort_key(self) -> Tuple[int, int, int, int]:
        """The global merge order (see the module docstring)."""
        return (self.epoch, self.lamport, self.pid, self.seq)


@dataclass
class ShardData:
    """One parsed shard file."""

    path: str
    pid: int
    num_processes: int
    epoch: int
    incarnation: int
    entries: List[ShardEntry] = field(default_factory=list)
    #: True when the footer is present and its record count matches.
    complete: bool = False


def read_shard(path: str) -> ShardData:
    """Parse one shard file, tolerating a torn tail (SIGKILLed writer)."""
    header: Optional[dict] = None
    entries: List[ShardEntry] = []
    complete = False
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                parsed = decode_line(stripped)
            except JSONDecodeError:
                # A torn final line is the expected remnant of a SIGKILL;
                # torn *interior* lines would desynchronise the parse of
                # the following line instead, so stopping here is safe.
                break
            if header is None:
                if not isinstance(parsed, dict) or parsed.get("shard") != SHARD_VERSION:
                    raise ValueError(f"{path}:{number}: not a live trace shard")
                header = parsed
                continue
            if isinstance(parsed, dict):
                footer = parsed.get("shard_footer")
                if not isinstance(footer, dict):
                    raise ValueError(f"{path}:{number}: unexpected shard object")
                complete = footer.get("records") == len(entries)
                break
            if not (isinstance(parsed, list) and len(parsed) == 3):
                raise ValueError(f"{path}:{number}: malformed shard record")
            epoch, lamport, record = parsed
            if not isinstance(record, list) or not record:
                raise ValueError(f"{path}:{number}: malformed shard record body")
            if record[0] == TAG_ELIMINATION:
                if len(record) != 3:
                    raise ValueError(f"{path}:{number}: malformed elimination record")
            else:
                validate_record(record, line=number, path=path)
            entries.append(
                ShardEntry(
                    epoch=int(epoch),
                    lamport=int(lamport),
                    pid=int(header["pid"]),
                    seq=len(entries),
                    record=tuple(record),
                )
            )
    if header is None:
        raise ValueError(f"{path}: empty shard file")
    return ShardData(
        path=path,
        pid=int(header["pid"]),
        num_processes=int(header["num_processes"]),
        epoch=int(header["epoch"]),
        incarnation=int(header.get("incarnation", 0)),
        entries=entries,
        complete=complete,
    )
