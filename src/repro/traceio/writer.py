"""Streaming trace persistence.

:class:`TraceWriter` implements the :class:`repro.simulation.trace.TraceSink`
protocol, so attaching one to a :class:`~repro.simulation.trace.TraceRecorder`
turns every recorded occurrence into an appended JSONL record the moment it
happens (until a simulated run's recorder is first read, the runner's port
calls the same methods, in the same order, without building the log).  The
file is unbuffered, so each record is handed to the OS in full
(:func:`write_line`) before the recording call returns — a killed run leaves
every record it observed plus at most one torn line, a readable (partial)
trace, exactly like the campaign store's crash semantics.  The bytes of each
line come from the codec in :mod:`repro.traceio.format`.  The runner
additionally streams storage-occupancy samples through :meth:`write_sample`
and closes the file with a footer carrying the run's result record and
per-cell metrics (:meth:`finalize`) or the failure that aborted it
(:meth:`abort`).
"""

from __future__ import annotations

import io
import os
from typing import Any, Dict, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.traceio.format import (
    TAG_DUPLICATE,
    TAG_INTERNAL,
    TAG_JOIN,
    TAG_LEAVE,
    TAG_PARTITION,
    TAG_RECOVERY,
    encode_checkpoint,
    encode_document,
    encode_receive,
    encode_sample,
    encode_send,
    make_footer,
    make_header,
    make_scripted_header,
    metrics_from_record,
    result_to_record,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.rollback_plan import RollbackPlan
    from repro.simulation.runner import SimulationConfig, SimulationResult


def open_line_file(path: str) -> io.FileIO:
    """Create (truncate) ``path`` and its directory for :func:`write_line`."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb", buffering=0)


def write_line(handle: io.FileIO, document: bytes) -> None:
    """Hand one encoded document, newline-terminated, to the OS in full.

    ``handle`` is unbuffered, so once this returns the line survives a kill
    of the process; a short write (full disk) is completed or raises.
    """
    line = document + b"\n"
    written = handle.write(line)
    while written != len(line):
        line = line[written:]
        written = handle.write(line)


class TraceWriter:
    """Appends one run's trace to ``path``, header first, footer last."""

    def __init__(
        self,
        path: str,
        config: Optional["SimulationConfig"] = None,
        *,
        meta: Optional[Mapping[str, Any]] = None,
        header: Optional[Dict[str, Any]] = None,
    ) -> None:
        if (config is None) == (header is None):
            raise ValueError("pass exactly one of config or header")
        if header is None:
            assert config is not None
            header = make_header(config, meta=meta)
        # Built and encoded before the file exists: a header that cannot be
        # written leaves neither an open handle nor an empty trace behind.
        first_line = encode_document(header)
        self._path = path
        self._records = 0
        self._events = 0
        self._closed = False
        self._handle = open_line_file(path)
        write_line(self._handle, first_line)

    @classmethod
    def scripted(
        cls,
        path: str,
        num_processes: int,
        *,
        seed: Optional[int] = None,
        workload: str = "scripted",
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "TraceWriter":
        """A writer for recorders driven outside the simulation runner."""
        return cls(
            path,
            header=make_scripted_header(
                num_processes, seed=seed, workload=workload, meta=meta
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Location of the trace file."""
        return self._path

    @property
    def closed(self) -> bool:
        """True once the footer was written (or the writer abandoned)."""
        return self._closed

    # ------------------------------------------------------------------
    # TraceSink protocol (driven by the TraceRecorder)
    # ------------------------------------------------------------------
    def on_send(self, sender: int, receiver: int, message_id: int, time: float) -> None:
        """Persist an application send."""
        self._events += 1
        self._append(encode_send(sender, receiver, message_id, time))

    def on_receive(self, message_id: int, time: float) -> None:
        """Persist a message delivery."""
        self._events += 1
        self._append(encode_receive(message_id, time))

    def on_duplicate_receive(self, message_id: int, time: float) -> None:
        """Persist a duplicate delivery (at-least-once channels)."""
        self._events += 1
        self._append(encode_document([TAG_DUPLICATE, message_id, time]))

    def on_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
    ) -> None:
        """Persist a stable checkpoint and its stored dependency vector."""
        self._events += 1
        self._append(encode_checkpoint(pid, index, forced, time, dependency_vector))

    def on_internal(self, pid: int, time: float) -> None:
        """Persist an internal application event."""
        self._events += 1
        self._append(encode_document([TAG_INTERNAL, pid, time]))

    def on_join(self, pid: int, time: float) -> None:
        """Persist a membership join (``pid`` becomes an active member)."""
        self._append(encode_document([TAG_JOIN, pid, time]))

    def on_leave(self, pid: int, time: float) -> None:
        """Persist a membership leave (``pid`` retires permanently)."""
        self._append(encode_document([TAG_LEAVE, pid, time]))

    def on_recovery(self, plan: "RollbackPlan") -> None:
        """Persist a recovery session (the full rollback plan)."""
        self._append(
            encode_document(
                [
                    TAG_RECOVERY,
                    list(plan.faulty),
                    list(plan.recovery_line.indices),
                    [[r.pid, r.rollback_index] for r in plan.rollbacks],
                    list(plan.last_interval_vector),
                ]
            )
        )

    # ------------------------------------------------------------------
    # Runner-driven records
    # ------------------------------------------------------------------
    def write_sample(self, time: float, retained_per_process: Sequence[int]) -> None:
        """Persist a storage-occupancy sample."""
        self._append(encode_sample(time, retained_per_process))

    def write_partition_event(
        self, kind: str, time: float, groups: Sequence[Sequence[int]]
    ) -> None:
        """Persist a partition transition (``kind`` is ``cut`` or ``heal``)."""
        self._append(
            encode_document(
                [TAG_PARTITION, kind, time, [list(group) for group in groups]]
            )
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finalize(
        self,
        result: "SimulationResult",
        *,
        final_volatile_dvs: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        """Write the ``ok`` footer (result record + metrics) and close."""
        record = result_to_record(result)
        self._finish(
            make_footer(
                records=self._records,
                events=self._events,
                status="ok",
                result=record,
                metrics=metrics_from_record(record),
                final_volatile_dvs=final_volatile_dvs,
            )
        )

    def seal(self) -> None:
        """Write an ``ok`` footer without a result record and close.

        For scripted captures (no :class:`SimulationResult` exists): the
        trace remains fully replayable, it just carries no per-cell metrics.
        """
        self._finish(
            make_footer(records=self._records, events=self._events, status="ok")
        )

    def abort(self, error: str) -> None:
        """Write an ``aborted`` footer carrying ``error`` and close.

        An aborted trace is still fully replayable up to the failure point —
        the property campaign sweeps rely on when an unsafe collector breaks
        recovery mid-cell.
        """
        self._finish(
            make_footer(
                records=self._records,
                events=self._events,
                status="aborted",
                error=error,
            )
        )

    def close(self) -> None:
        """Close without a footer (leaves a truncated trace); idempotent."""
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and not self._closed:
            self.abort(f"{type(exc).__name__}: {exc}")
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(self, footer: Dict[str, Any]) -> None:
        if self._closed:
            raise RuntimeError(f"trace writer for {self._path!r} is already closed")
        write_line(self._handle, encode_document(footer))
        self.close()

    def _append(self, record: bytes) -> None:
        """Count one encoded body record and hand it to the OS."""
        if self._closed:
            raise RuntimeError(f"trace writer for {self._path!r} is already closed")
        self._records += 1
        write_line(self._handle, record)
