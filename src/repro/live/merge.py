"""Shard merge: per-process live shards → one v2 traceio artifact.

The merge is a deterministic function of the shard files and the recovery
plans the coordinator computed:

1. every shard's entries are read (tolerating a SIGKILL-torn final line)
   and sorted globally by ``(epoch, lamport, pid, line)`` — a causal
   linearisation (see :mod:`repro.live.shard`);
2. the ordered records are fed through a fresh
   :class:`~repro.simulation.trace.TraceRecorder` with a
   :class:`~repro.traceio.writer.TraceWriter` attached, exactly the sink
   pipeline a simulated run uses, so the artifact obeys every v2 invariant
   by construction.  Each record is checked once, where it is applied (an
   event by :func:`~repro.traceio.reader.apply_event_record`, an ``e``
   inline); a refusal is a ``TraceFormatError`` naming its shard's
   ``path:line``.  Receives whose send never became durable (the
   sender was SIGKILLed between the two shard writes — impossible by the
   write-before-transmit rule, but defended anyway) are silently dropped by
   the recorder, mirroring its replay contract;
3. at each epoch boundary the corresponding
   :class:`~repro.recovery.rollback_plan.RollbackPlan` is applied to the
   recorder (which emits the artifact's ``v`` record), reproducing the
   history truncation the recovery session performed on the live system.

A SIGKILLed process's respawn is restored from the session's replayed
pattern (:func:`restore_spec`): its stable checkpoints are the pattern's, and
the only fact the pattern lacks — which of them a collector eliminated — the
same replay collects from the shards' ``e`` records.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.pattern import CCP
from repro.recovery.rollback_plan import RollbackPlan
from repro.simulation.trace import TraceRecorder, TraceSink
from repro.traceio.format import (
    TAG_CHECKPOINT,
    TAG_DUPLICATE,
    TAG_RECEIVE,
    TAG_SEND,
    TraceFormatError,
)
from repro.traceio.reader import apply_event_record

from repro.live.shard import TAG_ELIMINATION, ShardData, ShardEntry


def restore_spec(
    ccp: CCP,
    eliminated: Sequence[Set[int]],
    pid: int,
    rollback_index: int,
    last_interval_vector: Sequence[int],
) -> Dict[str, object]:
    """The ``restore`` object a respawned worker rebuilds its storage from.

    ``ccp`` is the session's replayed pattern and ``eliminated`` the per-pid
    sets :func:`replay_entries` kept.  The stores are the pattern's
    checkpoints ``s_pid^0 .. s_pid^rollback_index`` in index order, each
    with the vector, kind and time its ``c`` record stored; the holes are
    the indices below the target a collector eliminated since their last
    store.  ``apply_rollback`` on the worker discards everything above the
    target, so nothing later needs shipping.
    """
    if rollback_index > ccp.last_stable(pid):
        raise RuntimeError(
            f"shards never recorded checkpoint s{pid}^{rollback_index} "
            f"needed to restore process {pid}"
        )
    stores = []
    for index in range(rollback_index + 1):
        cid = CheckpointId(pid, index)
        checkpoint = ccp.checkpoint(cid)
        stores.append([index, list(ccp.dv(cid)), checkpoint.forced, checkpoint.time])
    return {
        "stores": stores,
        "eliminated": sorted(index for index in eliminated[pid] if index < rollback_index),
        "rollback_index": rollback_index,
        "last_interval_vector": list(last_interval_vector),
    }


def ordered_entries(shards: Sequence[ShardData]) -> List[ShardEntry]:
    """All shard entries in global merge order."""
    return sorted(entry for shard in shards for entry in shard.entries)


def replay_entries(
    entries: Sequence[ShardEntry],
    num_processes: int,
    *,
    plans: Mapping[int, RollbackPlan] = {},
    sink: Optional[TraceSink] = None,
    eliminated: Optional[Sequence[Set[int]]] = None,
) -> TraceRecorder:
    """Feed ordered entries through a fresh recorder (and optional sink).

    ``plans[e]`` is applied to the recorder after the last record of epoch
    ``e``, reproducing the live system's recovery sessions at exactly the
    points they happened.  ``eliminated`` (one set per pid), when given,
    ends up holding each process's indices eliminated since their last
    store: an ``e`` record adds its index, a ``c`` record discards it, and
    a plan leaves it alone (a rolled-back index is stored again before any
    rollback can reach past it).
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
            epoch += 1
        record = entry.record
        try:
            if apply_event_record(recorder, record):
                if eliminated is not None and record[0] == TAG_CHECKPOINT:
                    eliminated[record[1]].discard(record[2])
            elif record[0] != TAG_ELIMINATION:
                raise TraceFormatError(f"unknown record tag {record[0]!r} in a shard")
            elif (
                len(record) == 3
                and type(record[1]) is type(record[2]) is int
                and record[1] == entry.pid
                and record[2] >= 0
            ):
                # Shard-only bookkeeping: never enters the artifact (eliminations
                # are not trace events in simulated artifacts either).
                if eliminated is not None:
                    eliminated[entry.pid].add(record[2])
            else:
                raise TraceFormatError(
                    f"{list(record)!r} is not an elimination "
                    f'["e", {entry.pid}, <checkpoint index >= 0>]'
                )
        except TraceFormatError as exc:
            raise TraceFormatError(f"{entry.path}:{entry.line}: {exc}") from None
        except (ValueError, IndexError) as exc:
            raise TraceFormatError(
                f"{entry.path}:{entry.line}: record is inconsistent with the "
                f"merged history ({type(exc).__name__}: {exc})"
            ) from exc
    # Trailing plans (a crash with no post-resume records, or none at all).
    while epoch in plans:
        recorder.apply_recovery(plans[epoch])
        epoch += 1
    return recorder


def shard_counters(shards: Sequence[ShardData]) -> Dict[str, int]:
    """Exact event tallies over the *raw* shards (pre-truncation history).

    These are the live counterparts of the simulator's network statistics,
    node checkpoint counters and storage elimination counts, which also
    count occurrences that recovery later rolled back; deriving them from
    the shards covers SIGKILLed incarnations whose in-memory counters died
    with the process.  Taken after :func:`replay_entries` accepted the same
    shards, so only checked records are counted.
    """
    counters = {
        "sent": 0,
        "delivered": 0,
        "duplicates": 0,
        "basic_checkpoints": 0,
        "forced_checkpoints": 0,
        "eliminated": 0,
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
            elif tag == TAG_ELIMINATION:
                counters["eliminated"] += 1
    return counters
