"""Shard merge: per-process live shards → one v2 traceio artifact.

The merge is a deterministic function of the shard files and the recovery
plans the coordinator computed:

1. every shard's entries are read (tolerating SIGKILL-torn tails) and
   sorted globally by ``(epoch, lamport, pid, shard_seq)`` — a causal
   linearisation (see :mod:`repro.live.shard`);
2. the ordered records are fed through a fresh
   :class:`~repro.simulation.trace.TraceRecorder` with a
   :class:`~repro.traceio.writer.TraceWriter` attached, exactly the sink
   pipeline a simulated run uses, so the artifact obeys every v2 invariant
   by construction.  Receives whose send never became durable (the sender
   was SIGKILLed between the two shard writes — impossible by the
   write-before-transmit rule, but defended anyway) are silently dropped
   by the recorder, mirroring its replay contract;
3. at each epoch boundary the corresponding
   :class:`~repro.recovery.rollback_plan.RollbackPlan` is applied to the
   recorder (which emits the artifact's ``v`` record), reproducing the
   history truncation the recovery session performed on the live system.

The same replay also maintains a storage mirror (stores, collector
eliminations, rollback truncations) — what the coordinator uses to
reconstruct a SIGKILLed process's stable storage for its respawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.recovery.rollback_plan import RollbackPlan
from repro.simulation.trace import TraceRecorder, TraceSink
from repro.traceio.format import TAG_CHECKPOINT, TAG_DUPLICATE, TAG_RECEIVE, TAG_SEND
from repro.traceio.reader import apply_event_record

from repro.live.shard import TAG_ELIMINATION, ShardData, ShardEntry


@dataclass
class StorageMirror:
    """Reconstruction of every process's stable storage from the shards."""

    num_processes: int
    #: Indices currently on storage, per pid.
    retained: List[Set[int]] = field(init=False)
    #: ``(pid, index) → (dv, forced, time)`` of the *current* incarnation of
    #: each checkpoint (indices are reused after rollbacks; last write wins).
    info: Dict[Tuple[int, int], Tuple[Tuple[int, ...], bool, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.retained = [set() for _ in range(self.num_processes)]

    def apply_store(
        self, pid: int, index: int, dv: Sequence[int], forced: bool, time: float
    ) -> None:
        """A checkpoint reached stable storage."""
        self.retained[pid].add(index)
        self.info[(pid, index)] = (tuple(int(v) for v in dv), forced, time)

    def apply_elimination(self, pid: int, index: int) -> None:
        """A collector eliminated a checkpoint."""
        self.retained[pid].discard(index)

    def apply_plan(self, plan: RollbackPlan) -> None:
        """A recovery session truncated storage via ``eliminate_after``."""
        for rollback in plan.rollbacks:
            self.retained[rollback.pid] = {
                index
                for index in self.retained[rollback.pid]
                if index <= rollback.rollback_index
            }

    def restore_spec(
        self, pid: int, rollback_index: int, last_interval_vector: Sequence[int]
    ) -> Dict[str, object]:
        """The ``restore`` object a respawned worker rebuilds its storage from.

        Stores are replayed sequentially up to the rollback target, then the
        eliminated holes below it are re-punched; ``apply_rollback`` on the
        worker discards everything above the target, so nothing later needs
        shipping.
        """
        stores = []
        for index in range(rollback_index + 1):
            entry = self.info.get((pid, index))
            if entry is None:
                raise RuntimeError(
                    f"shards never recorded checkpoint s{pid}^{index} "
                    f"needed to restore process {pid}"
                )
            dv, forced, time = entry
            stores.append([index, list(dv), forced, time])
        eliminated = sorted(
            index
            for index in range(rollback_index)
            if index not in self.retained[pid]
        )
        return {
            "stores": stores,
            "eliminated": eliminated,
            "rollback_index": rollback_index,
            "last_interval_vector": list(last_interval_vector),
        }


def ordered_entries(shards: Sequence[ShardData]) -> List[ShardEntry]:
    """All shard entries in global merge order."""
    entries = [entry for shard in shards for entry in shard.entries]
    entries.sort(key=lambda entry: entry.sort_key)
    return entries


def replay_entries(
    entries: Sequence[ShardEntry],
    num_processes: int,
    *,
    plans: Mapping[int, RollbackPlan] = {},
    sink: Optional[TraceSink] = None,
    mirror: Optional[StorageMirror] = None,
) -> TraceRecorder:
    """Feed ordered entries through a fresh recorder (and optional sink).

    ``plans[e]`` is applied — to the recorder *and* the mirror — after the
    last record of epoch ``e``, reproducing the live system's recovery
    sessions at exactly the points they happened.
    """
    recorder = TraceRecorder(num_processes)
    if sink is not None:
        recorder.attach_sink(sink)
    epoch = 0
    for entry in entries:
        while entry.epoch > epoch:
            plan = plans.get(epoch)
            if plan is not None:
                recorder.apply_recovery(plan)
                if mirror is not None:
                    mirror.apply_plan(plan)
            epoch += 1
        record = entry.record
        if apply_event_record(recorder, record):
            if mirror is not None and record[0] == TAG_CHECKPOINT:
                _, pid, index, forced, time, dv = record
                mirror.apply_store(pid, index, dv, bool(forced), time)
        elif record[0] == TAG_ELIMINATION:
            # Shard-only bookkeeping: never enters the artifact (eliminations
            # are not trace events in simulated artifacts either).
            if mirror is not None:
                _, pid, index = record
                mirror.apply_elimination(pid, index)
        else:
            raise ValueError(f"unknown shard record tag {record[0]!r}")
    # Trailing plans (a crash with no post-resume records, or none at all).
    while epoch in plans:
        recorder.apply_recovery(plans[epoch])
        if mirror is not None:
            mirror.apply_plan(plans[epoch])
        epoch += 1
    return recorder


def shard_counters(shards: Sequence[ShardData]) -> Dict[str, int]:
    """Exact event tallies over the *raw* shards (pre-truncation history).

    These are the live counterparts of the simulator's node counters, which
    also count occurrences that recovery later rolled back; deriving them
    from the shards covers SIGKILLed incarnations whose in-memory counters
    died with the process.
    """
    counters = {
        "sent": 0,
        "delivered": 0,
        "duplicates": 0,
        "basic_checkpoints": 0,
        "forced_checkpoints": 0,
    }
    for shard in shards:
        for entry in shard.entries:
            tag = entry.record[0]
            if tag == TAG_SEND:
                counters["sent"] += 1
            elif tag == TAG_RECEIVE:
                counters["delivered"] += 1
            elif tag == TAG_DUPLICATE:
                counters["duplicates"] += 1
            elif tag == TAG_CHECKPOINT:
                if entry.record[3]:
                    counters["forced_checkpoints"] += 1
                else:
                    counters["basic_checkpoints"] += 1
    return counters
