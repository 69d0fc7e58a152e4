"""Counterexample shrinking and one-command repro artifacts.

A raw counterexample is a (configuration, schedule) pair whose execution
violates an oracle.  Shrinking minimises it greedily while preserving the
violation *kind*:

1. **Truncation** — the schedule is cut at the violating token (the executor
   already stops there), so no counterexample carries a tail.
2. **Delivery deletion** — each ``("d", m)`` token is dropped in turn (the
   message stays in flight forever, which is always a legal execution); the
   deletion is kept if the violation kind survives.
3. **Step deletion** — each program step is dropped in turn *together with*
   its schedule token and, for sends, the matching delivery token; later
   message ordinals are renumbered (message ids are send ordinals).  The
   result is a strictly smaller configuration that still violates.

The passes repeat until a fixpoint: no single deletion preserves the
violation.  That is the shrinking invariant — every persisted
counterexample is *1-minimal* (removing any one delivery or program step
makes the violation disappear), and shrinking never changes the violation
kind it set out to preserve.

The shrunk counterexample is persisted as a v2 :mod:`repro.traceio`
artifact: the trace body is the violating execution itself (replayable into
an identical recorder by the traceio layer alone) and the header ``meta``
carries the full explorer provenance — configuration, schedule and
violation — so :func:`replay_counterexample` can re-execute it live and
byte-compare the two artifacts.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.executor import ScheduleExecutor
from repro.explore.oracles import OracleStack
from repro.explore.program import (
    ADVANCE,
    DELIVER,
    Choice,
    ExploreConfig,
    StepKind,
    Violation,
    validate_schedule,
)


@dataclass(frozen=True)
class ShrunkCounterexample:
    """A 1-minimal repro: configuration, schedule and the violation it shows."""

    config: ExploreConfig
    schedule: Tuple[Choice, ...]
    violation: Violation
    #: Events in the recorder when the violation surfaced (artifact size).
    trace_events: int
    #: Executions spent shrinking (reported by the CLI and benchmark).
    attempts: int

    def provenance(self) -> Dict[str, Any]:
        """The explorer header-meta payload of the persisted artifact."""
        return {
            "violation": {
                "kind": self.violation.kind,
                "detail": self.violation.detail,
                "step": self.violation.step,
            },
            "trace_events": self.trace_events,
        }


def _still_violates(
    config: ExploreConfig,
    schedule: Sequence[Choice],
    kind: str,
    oracles: Optional[OracleStack],
    check_from: int = 0,
) -> Optional[Tuple[Violation, int]]:
    """Execute a candidate; return (violation, trace_events) if ``kind`` recurs.

    ``check_from`` skips the per-state audits of a prefix already audited
    clean on the same configuration (see :meth:`ScheduleExecutor.start`).
    """
    try:
        validate_schedule(config, schedule)
    except ValueError:
        return None
    outcome = ScheduleExecutor(config, oracles).execute(schedule, check_from=check_from)
    if outcome.violation is not None and outcome.violation.kind == kind:
        return outcome.violation, outcome.trace_events
    return None


def _drop_delivery(
    schedule: Sequence[Choice], position: int
) -> Tuple[Choice, ...]:
    return tuple(schedule[:position]) + tuple(schedule[position + 1:])


def _drop_program_step(
    config: ExploreConfig, schedule: Sequence[Choice], step_index: int
) -> Tuple[ExploreConfig, Tuple[Choice, ...]]:
    """Remove program step ``step_index`` and re-number everything after it."""
    step = config.program[step_index]
    removed_ordinal: Optional[int] = None
    if step.kind is StepKind.SEND:
        removed_ordinal = config.send_ordinal(step_index)
    program = config.program[:step_index] + config.program[step_index + 1:]
    new_config = ExploreConfig(
        num_processes=config.num_processes,
        program=program,
        protocol=config.protocol,
        collector=config.collector,
        collector_options=config.collector_options,
        seed=config.seed,
        step_gap=config.step_gap,
    )
    tokens: List[Choice] = []
    for kind, value in schedule:
        if kind == ADVANCE:
            if value == step_index:
                continue
            tokens.append((ADVANCE, value - 1 if value > step_index else value))
        else:
            if removed_ordinal is not None:
                if value == removed_ordinal:
                    continue
                if value > removed_ordinal:
                    value -= 1
            tokens.append((DELIVER, value))
    return new_config, tuple(tokens)


def shrink(
    config: ExploreConfig,
    schedule: Sequence[Choice],
    violation: Violation,
    *,
    oracles: Optional[OracleStack] = None,
    max_attempts: int = 2000,
) -> ShrunkCounterexample:
    """Greedily minimise a counterexample while preserving its violation kind.

    Executes at most ``max_attempts`` candidates (the baseline re-execution
    not counted); a budget that runs out first leaves the result smaller but
    not necessarily 1-minimal.
    """
    kind = violation.kind
    attempts = 0
    # Re-establish the baseline (also truncates: the executor stops at the
    # violation, so anything after `violation.step` is dead weight).
    baseline = _still_violates(config, schedule, kind, oracles)
    if baseline is None:
        raise ValueError(
            f"the given schedule does not reproduce a {kind!r} violation"
        )
    current_violation, trace_events = baseline
    schedule = tuple(schedule[: current_violation.step])
    # Which prefix a candidate may skip auditing: the current schedule is
    # clean at every state before its violation step (each accepted
    # candidate audited what its predecessor had not).  A pass-1 candidate
    # keeps the configuration and the first ``position`` tokens, so it
    # reaches those same clean states and audits from ``position``.  A
    # pass-2 candidate runs a different configuration — every state is
    # new — so it audits from 0.
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        # Pass 1: drop deliveries, last first (later tokens are likelier to
        # be past the violation's cause).
        for position in range(len(schedule) - 1, -1, -1):
            # An accepted deletion (or its truncation) may have shortened the
            # schedule below positions this pass still has queued.
            if position >= len(schedule) or schedule[position][0] != DELIVER:
                continue
            if attempts >= max_attempts:
                break
            candidate = _drop_delivery(schedule, position)
            attempts += 1
            outcome = _still_violates(
                config, candidate, kind, oracles, check_from=position
            )
            if outcome is not None:
                current_violation, trace_events = outcome
                schedule = tuple(candidate[: current_violation.step])
                changed = True
        # Pass 2: drop whole program steps (with their tokens), last first.
        for step_index in range(len(config.program) - 1, -1, -1):
            if step_index >= len(config.program) or attempts >= max_attempts:
                continue
            new_config, candidate = _drop_program_step(config, schedule, step_index)
            attempts += 1
            outcome = _still_violates(new_config, candidate, kind, oracles)
            if outcome is not None:
                current_violation, trace_events = outcome
                config, schedule = new_config, tuple(candidate[: current_violation.step])
                changed = True
    return ShrunkCounterexample(
        config=config,
        schedule=schedule,
        violation=current_violation,
        trace_events=trace_events,
        attempts=attempts,
    )


# ----------------------------------------------------------------------
# Persistence and replay
# ----------------------------------------------------------------------
def persist_counterexample(
    shrunk: ShrunkCounterexample,
    path: str,
    *,
    oracles: Optional[OracleStack] = None,
) -> Violation:
    """Write the shrunk counterexample as a replayable traceio artifact.

    Re-executes the shrunk schedule with a trace writer attached; the
    violation must recur (it is re-checked) and is embedded in the header
    provenance and the ``aborted`` footer.  Returns the recurred violation.
    """
    outcome = ScheduleExecutor(shrunk.config, oracles).execute(
        shrunk.schedule, trace_path=path, trace_meta=shrunk.provenance()
    )
    if outcome.violation is None or outcome.violation.kind != shrunk.violation.kind:
        raise RuntimeError(
            f"persisting {path}: the shrunk schedule no longer reproduces the "
            f"{shrunk.violation.kind!r} violation (got {outcome.violation})"
        )
    return outcome.violation


@dataclass
class CounterexampleReplay:
    """Outcome of replaying a persisted counterexample artifact."""

    path: str
    config: ExploreConfig
    schedule: Tuple[Choice, ...]
    recorded_violation: Dict[str, Any]
    #: ``None`` only for the violation-free artifacts of the fuzz corpus.
    replayed_violation: Optional[Violation]
    byte_identical: bool
    trace_events: int


def replay_artifact(
    path: str,
    *,
    oracles: Optional[OracleStack] = None,
    expect_violation: bool,
    written_by: str,
) -> Tuple[CounterexampleReplay, Dict[str, Any]]:
    """Replay one explorer-provenance artifact and verify it byte for byte.

    The body shared by :func:`replay_counterexample` and
    :func:`repro.fuzz.replay_corpus_entry`, three layers of checking:

    1. the artifact replays through :mod:`repro.traceio` (rehydrating the
       recorded execution — this is what proves the trace itself is sound);
    2. the provenance in the header re-executes live and must violate an
       oracle exactly when ``expect_violation`` says so;
    3. the live re-execution's trace artifact is byte-compared against the
       persisted one.

    Returns the replay and the header's explorer provenance.
    """
    from repro.traceio.reader import TraceReader

    replayed = TraceReader(path).replay()
    meta = (replayed.header.get("meta") or {}).get("explorer")
    if not meta:
        raise ValueError(
            f"{path}: trace carries no explorer provenance in its header meta "
            f"— was it written by {written_by}?"
        )
    config = ExploreConfig.from_mapping(meta["config"])
    schedule: Tuple[Choice, ...] = tuple(
        (str(kind), int(value)) for kind, value in meta["schedule"]
    )
    recorded = dict(meta.get("violation") or {})
    extra = {k: v for k, v in meta.items() if k not in ("config", "schedule")}
    with tempfile.TemporaryDirectory() as scratch:
        fresh_path = os.path.join(scratch, os.path.basename(path))
        outcome = ScheduleExecutor(config, oracles).execute(
            schedule, trace_path=fresh_path, trace_meta=extra
        )
        if expect_violation and outcome.violation is None:
            raise RuntimeError(
                f"{path}: re-executing the persisted schedule produced no "
                f"violation (expected {recorded.get('kind')!r})"
            )
        if not expect_violation and outcome.violation is not None:
            raise RuntimeError(
                f"{path}: re-executing the corpus entry violated an oracle: "
                f"{outcome.violation}"
            )
        with open(path, "rb") as original, open(fresh_path, "rb") as fresh:
            byte_identical = original.read() == fresh.read()
    replay = CounterexampleReplay(
        path=path,
        config=config,
        schedule=schedule,
        recorded_violation=recorded,
        replayed_violation=outcome.violation,
        byte_identical=byte_identical,
        trace_events=replayed.recorder.log.total_events(),
    )
    return replay, meta


def replay_counterexample(
    path: str, *, oracles: Optional[OracleStack] = None
) -> CounterexampleReplay:
    """Replay a persisted counterexample (see :func:`replay_artifact`): the
    re-execution must reproduce a violation, and the same artifact bytes."""
    return replay_artifact(
        path, oracles=oracles, expect_violation=True, written_by="repro.explore"
    )[0]


def counterexample_summary(replay: CounterexampleReplay) -> str:
    """One-paragraph human rendering (CLI output)."""
    recorded = replay.recorded_violation
    return (
        f"{replay.path}: {replay.config.protocol} / {replay.config.collector} "
        f"({replay.config.num_processes} processes, "
        f"{len(replay.schedule)} schedule tokens, {replay.trace_events} events)\n"
        f"  recorded:  [{recorded.get('kind')} @ step {recorded.get('step')}] "
        f"{recorded.get('detail')}\n"
        f"  replayed:  {replay.replayed_violation}\n"
        f"  byte-identical re-execution: {'yes' if replay.byte_identical else 'NO'}"
    )


def schedule_to_json(schedule: Sequence[Choice]) -> str:
    """Compact JSON rendering of a schedule (diagnostics, tests)."""
    return json.dumps([list(token) for token in schedule], separators=(",", ":"))
