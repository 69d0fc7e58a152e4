"""Shared machinery for coordinator-based garbage collectors.

Both baselines that rely on control messages (the all-process recovery-line
scheme and Wang et al.'s collect-everything scheme) follow the same round
structure, which this module factors out:

1. a designated coordinator periodically broadcasts a ``request``;
2. every process replies with a ``report``: the indices and stored dependency
   vectors of its stable checkpoints, its last stable index and its current
   dependency vector;
3. once all reports of the round are in, the coordinator computes a per-process
   list of checkpoint indices to discard and sends each process its
   ``decision``;
4. each process applies the decision to its stable storage.

Because reports are gathered asynchronously, the assembled view may not be a
consistent cut.  To keep the decisions safe the coordinator never trusts a
process's self-reported last checkpoint index alone: it uses, for every
process ``f``, the *effective* last index ``L̂_f`` — the maximum of ``f``'s
self-report and of every dependency-vector entry ``[f] - 1`` appearing in any
report.  With that adjustment a checkpoint is only discarded when it is
obsolete in every execution consistent with the gathered facts (the DESIGN.md
notes include the argument); the safety property tests exercise this under
random schedules.

Rollbacks invalidate in-flight rounds: every recovery-session hook bumps an
epoch counter and messages from older epochs are ignored.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.gc.base import GarbageCollector
from repro.storage.stable import StableStorage


@dataclass(frozen=True)
class GcReport:
    """One process's contribution to a garbage-collection round."""

    pid: int
    last_stable: int
    checkpoints: Tuple[Tuple[int, Tuple[int, ...]], ...]
    volatile_dv: Tuple[int, ...]


@dataclass(frozen=True)
class _Request:
    epoch: int
    round_id: int


@dataclass(frozen=True)
class _Reply:
    epoch: int
    round_id: int
    report: GcReport


@dataclass(frozen=True)
class _Decision:
    epoch: int
    round_id: int
    discard: Tuple[int, ...]


class CoordinatedCollectorBase(GarbageCollector):
    """Round-based coordinated garbage collection (template)."""

    asynchronous = False
    uses_control_messages = True

    def __init__(
        self,
        pid: int,
        num_processes: int,
        storage: StableStorage,
        *,
        period: float = 50.0,
        coordinator: int = 0,
    ) -> None:
        super().__init__(pid, num_processes, storage)
        if period <= 0:
            raise ValueError("the collection period must be positive")
        self._period = period
        self._coordinator = coordinator
        self._epoch = 0
        self._round_id = 0
        self._pending_reports: Dict[int, GcReport] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_coordinator(self) -> bool:
        """True for the process that drives the rounds."""
        return self._pid == self._coordinator

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def on_control_plane_attached(self) -> None:
        if self.is_coordinator:
            self.control.schedule_timer(self._period)

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def on_timer(self, time: float) -> None:
        if not self.is_coordinator:
            return
        self._start_round()
        self.control.schedule_timer(self._period)

    def _start_round(self) -> None:
        self._round_id += 1
        self._pending_reports = {self._pid: self._build_report()}
        request = _Request(self._epoch, self._round_id)
        self.control.broadcast_control(request)
        self._maybe_finish_round()

    def on_control_message(self, sender: int, payload: Any, time: float) -> None:
        if isinstance(payload, _Request):
            if payload.epoch != self._epoch:
                return
            reply = _Reply(payload.epoch, payload.round_id, self._build_report())
            self.control.send_control(sender, reply)
        elif isinstance(payload, _Reply):
            if payload.epoch != self._epoch or payload.round_id != self._round_id:
                return
            self._pending_reports[payload.report.pid] = payload.report
            self._maybe_finish_round()
        elif isinstance(payload, _Decision):
            if payload.epoch != self._epoch:
                return
            self._apply_decision(payload.discard)

    def _maybe_finish_round(self) -> None:
        if not self.is_coordinator:
            return
        if len(self._pending_reports) < self._num_processes:
            return
        decisions = self.compute_decisions(dict(self._pending_reports))
        for pid, discard in decisions.items():
            if not discard:
                continue
            decision = _Decision(self._epoch, self._round_id, tuple(sorted(discard)))
            if pid == self._pid:
                self._apply_decision(decision.discard)
            else:
                self.control.send_control(pid, decision)
        self._pending_reports = {}

    def _apply_decision(self, discard: Sequence[int]) -> None:
        for index in discard:
            if self._storage.contains(index) and index != self._storage.last_index():
                self._eliminate(index)

    def _build_report(self) -> GcReport:
        checkpoints = tuple(
            (index, self._storage.get(index).dependency_vector)
            for index in self._storage.retained_indices()
        )
        return GcReport(
            pid=self._pid,
            last_stable=self._storage.last_index(),
            checkpoints=checkpoints,
            volatile_dv=self.control.current_dv(),
        )

    # ------------------------------------------------------------------
    # Recovery sessions: invalidate in-flight rounds
    # ------------------------------------------------------------------
    def on_rollback(
        self,
        rollback_index: int,
        last_interval_vector: Optional[Sequence[int]],
        dv: Sequence[int],
    ) -> List[int]:
        self._epoch += 1
        self._pending_reports = {}
        return []

    def on_peer_rollback(
        self, last_interval_vector: Sequence[int], dv: Sequence[int]
    ) -> List[int]:
        self._epoch += 1
        self._pending_reports = {}
        return []

    # ------------------------------------------------------------------
    # Template hooks
    # ------------------------------------------------------------------
    @staticmethod
    def effective_last_indices(reports: Dict[int, GcReport]) -> List[int]:
        """``L̂_f``: the safest usable "last stable checkpoint index" per process."""
        num_processes = len(next(iter(reports.values())).volatile_dv)
        effective = [-1] * num_processes
        for report in reports.values():
            effective[report.pid] = max(effective[report.pid], report.last_stable)
            vectors = [dv for _, dv in report.checkpoints] + [report.volatile_dv]
            for dv in vectors:
                for f, value in enumerate(dv):
                    effective[f] = max(effective[f], value - 1)
        return effective

    @abc.abstractmethod
    def compute_decisions(self, reports: Dict[int, GcReport]) -> Dict[int, List[int]]:
        """Given all reports of a round, decide which indices each process discards."""
