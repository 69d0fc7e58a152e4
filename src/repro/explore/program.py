"""Explorable configurations: a fixed program plus its schedule alphabet.

The explorer separates *what the application does* from *when the network
delivers*.  An :class:`ExploreConfig` fixes the former completely — a small
deterministic :class:`ExploreProgram` of sends, basic checkpoints and
injected crashes, executed in program order — and leaves the latter as the
explored axis: a **schedule** interleaves the program's steps with delivery
choices for the messages the program put in flight.

Schedule tokens
---------------

A schedule is a sequence of tokens:

* ``("a", i)`` — execute program step ``i`` (steps are consumed strictly in
  order, so ``i`` is always the number of ``"a"`` tokens before this one);
* ``("d", m)`` — deliver message ``m`` (messages are numbered ``0, 1, ...``
  in send order, which is exactly the network's ``message_id`` assignment
  for loss-free, duplication-free channels — the only channels the explorer
  drives).

A token sequence is *well-formed* if every ``("d", m)`` appears after the
send step that produced message ``m`` and at most once.  Tokens are plain
tuples so schedules embed directly in trace-header provenance and compare
bytewise across runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.gc.registry import CollectorSpec, check_collector
from repro.protocols.registry import available_protocols
from repro.validation import SpecValidationError, check_choice, check_keys, integer, naming, number

#: One schedule token (see the module docstring).
Choice = Tuple[str, int]

#: Token kinds.
ADVANCE = "a"
DELIVER = "d"


class StepKind(enum.Enum):
    """What one fixed program step does."""

    SEND = "send"
    CHECKPOINT = "checkpoint"
    CRASH = "crash"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        """The step kind's wire name (``send``, ``checkpoint``, ``crash``)."""
        return self.value


@dataclass(frozen=True)
class ProgramStep:
    """One fixed application step of an explorable configuration."""

    kind: StepKind
    pid: int
    target: Optional[int] = None

    def __post_init__(self) -> None:
        """Refuse a send without a target and a non-send with one."""
        if self.kind is StepKind.SEND and self.target is None:
            raise ValueError("SEND steps need a target process")
        if self.kind is not StepKind.SEND and self.target is not None:
            raise ValueError(f"{self.kind.value} steps take no target")

    def describe(self) -> List[Any]:
        """Compact JSON form (trace provenance)."""
        if self.kind is StepKind.SEND:
            return [self.kind.value, self.pid, self.target]
        return [self.kind.value, self.pid]

    @classmethod
    def from_description(cls, description: Any) -> "ProgramStep":
        """Rebuild a step from its :meth:`describe` form, or from the
        ``{"op": "send", "pid": 0, "target": 1}`` mapping form."""
        if isinstance(description, Mapping):
            check_keys(description, ("op", "pid", "target"), "program step")
            description = [description.get(key) for key in ("op", "pid", "target")]
        if not isinstance(description, (list, tuple)) or not 2 <= len(description) <= 3:
            raise SpecValidationError(
                "", f"expected [op, pid] or [op, pid, target], got {description!r}"
            )
        op, pid, target = (*description, None)[:3]
        check_choice("op", op, [kind.value for kind in StepKind])
        with naming(""):
            return cls(
                StepKind(op),
                integer("pid", pid),
                None if target is None else integer("target", target),
            )


def send(pid: int, target: int) -> ProgramStep:
    """Shorthand for a send step."""
    return ProgramStep(StepKind.SEND, pid, target)


def checkpoint(pid: int) -> ProgramStep:
    """Shorthand for a basic-checkpoint step."""
    return ProgramStep(StepKind.CHECKPOINT, pid)


def crash(pid: int) -> ProgramStep:
    """Shorthand for an injected-crash step (triggers a full recovery session)."""
    return ProgramStep(StepKind.CRASH, pid)


#: Every key an explore document may carry (``name`` is a label only).
EXPLORE_KEYS = ("name", "num_processes", "program", "protocol", "collector",
                "collector_options", "seed", "step_gap")


@dataclass(frozen=True)
class ExploreConfig:
    """Everything that is *fixed* about one explored configuration.

    ``collector_options`` is stored as sorted ``(key, value)`` pairs (the
    campaign layer's convention) so configurations stay hashable.
    """

    num_processes: int
    program: Tuple[ProgramStep, ...]
    protocol: str = "fdas"
    collector: str = "rdt-lgc"
    collector_options: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    #: Simulated time between consecutive program steps.  Delivery choices
    #: execute at the current clock, so the gap only spaces the fixed steps
    #: (and with it any timer-based collector's notion of age).
    step_gap: float = 1.0

    def __post_init__(self) -> None:
        """Refuse an empty process set, a non-positive step gap, a step
        naming a process outside the set, and an unknown protocol or
        collector."""
        if self.num_processes <= 0:
            raise SpecValidationError(
                "num_processes", "an explorable configuration needs at least one process"
            )
        if not 0 < self.step_gap < math.inf:
            raise SpecValidationError(
                "step_gap", f"the step gap must be positive and finite, got {self.step_gap!r}"
            )
        for index, step in enumerate(self.program):
            for pid in (step.pid, step.target):
                if pid is not None and not 0 <= pid < self.num_processes:
                    raise SpecValidationError(
                        f"program[{index}]",
                        f"program step {step} references process {pid} but the "
                        f"configuration has {self.num_processes} processes",
                    )
        check_choice("protocol", self.protocol, available_protocols())
        check_collector("collector", self.collector)

    @property
    def message_count(self) -> int:
        """Number of messages the program sends (== delivery choices)."""
        return sum(1 for step in self.program if step.kind is StepKind.SEND)

    @property
    def duration(self) -> float:
        """Simulated duration covering every program step plus a flush margin."""
        return (len(self.program) + 2) * self.step_gap

    def send_ordinal(self, step_index: int) -> int:
        """The message number produced by send step ``step_index``."""
        step = self.program[step_index]
        if step.kind is not StepKind.SEND:
            raise ValueError(f"program step {step_index} is not a send")
        return sum(
            1 for other in self.program[:step_index] if other.kind is StepKind.SEND
        )

    def collector_options_dict(self) -> Dict[str, Any]:
        """The collector options as a plain dict."""
        return dict(self.collector_options)

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON form (persisted in counterexample trace headers)."""
        return {
            "num_processes": self.num_processes,
            "program": [step.describe() for step in self.program],
            "protocol": self.protocol,
            "collector": self.collector,
            "collector_options": self.collector_options_dict(),
            "seed": self.seed,
            "step_gap": self.step_gap,
        }

    @classmethod
    def from_mapping(cls, document: Mapping[str, Any]) -> "ExploreConfig":
        """Build a configuration from an explore document — its
        :meth:`describe` mapping, or any subset of :data:`EXPLORE_KEYS` with a
        ``program``."""
        check_keys(document, EXPLORE_KEYS, "explore spec")
        steps = document.get("program")
        if not isinstance(steps, (list, tuple)):
            raise SpecValidationError("program", "an explore spec needs a list of program steps")
        program = []
        for index, step in enumerate(steps):
            with naming(f"program[{index}]"):
                program.append(ProgramStep.from_description(step))
        collector = CollectorSpec.of(
            document.get("collector", "rdt-lgc"),
            document.get("collector_options"),
            field="collector",
            options_field="collector_options",
        )
        return cls(
            num_processes=integer("num_processes", document.get("num_processes", 2)),
            program=tuple(program),
            protocol=document.get("protocol", "fdas"),
            collector=collector.name,
            collector_options=collector.options,
            seed=integer("seed", document.get("seed", 0)),
            step_gap=number("step_gap", document.get("step_gap", 1.0)),
        )


def validate_schedule(config: ExploreConfig, schedule: Sequence[Choice]) -> None:
    """Reject malformed schedules loudly (unknown tokens, deliveries before
    their send or repeated, program steps out of order or out of range)."""
    next_step = 0
    sent = 0
    delivered = set()
    for position, token in enumerate(schedule):
        kind, value = token[0], token[1]
        if kind == ADVANCE:
            if value != next_step:
                raise ValueError(
                    f"schedule token {position}: expected program step {next_step}, "
                    f"got {value} (steps are consumed in order)"
                )
            if next_step >= len(config.program):
                raise ValueError(
                    f"schedule token {position}: program has only "
                    f"{len(config.program)} steps"
                )
            if config.program[next_step].kind is StepKind.SEND:
                sent += 1
            next_step += 1
        elif kind == DELIVER:
            if value in delivered:
                raise ValueError(
                    f"schedule token {position}: message {value} delivered twice"
                )
            if value >= sent:
                raise ValueError(
                    f"schedule token {position}: message {value} has not been "
                    f"sent yet"
                )
            delivered.add(value)
        else:
            raise ValueError(f"schedule token {position}: unknown kind {kind!r}")


# ----------------------------------------------------------------------
# Canonical configurations
# ----------------------------------------------------------------------
def ring_program(
    num_processes: int,
    messages: int,
    *,
    checkpoint_every: int = 0,
    crash_pid: Optional[int] = None,
) -> Tuple[ProgramStep, ...]:
    """The canonical explorable program: a message ring with checkpoint rounds.

    Message ``m`` is sent by process ``m % n`` to its ring successor; after
    every ``checkpoint_every`` sends (default: one round, ``n`` sends) every
    process takes a basic checkpoint, and a final checkpoint round closes the
    program.  With ``crash_pid`` set, that process crashes just before the
    final round, so every schedule exercises a full recovery session.
    """
    if messages < 0:
        raise ValueError("the message budget must be non-negative")
    period = checkpoint_every or num_processes
    steps: List[ProgramStep] = []
    for m in range(messages):
        sender = m % num_processes
        steps.append(send(sender, (sender + 1) % num_processes))
        if (m + 1) % period == 0:
            steps.extend(checkpoint(pid) for pid in range(num_processes))
    if crash_pid is not None:
        steps.append(crash(crash_pid))
    if messages % period != 0 or crash_pid is not None or messages == 0:
        steps.extend(checkpoint(pid) for pid in range(num_processes))
    return tuple(steps)


def star_program(
    num_processes: int,
    messages: int,
    *,
    crash_pid: Optional[int] = None,
) -> Tuple[ProgramStep, ...]:
    """A client-server star: the explorable skeleton of the skewed
    client-server workload family (:mod:`repro.simulation.workloads`).

    Process 0 is the hub.  Request ``m`` is sent by client
    ``1 + m % (n - 1)`` to the hub, which answers with a reply; after every
    full client round all processes take a basic checkpoint.  With
    ``crash_pid`` set, that process crashes before the final checkpoint
    round, so every schedule exercises a recovery session on the star.
    """
    if num_processes < 2:
        raise ValueError("a star program needs a hub and at least one client")
    if messages < 0:
        raise ValueError("the message budget must be non-negative")
    clients = num_processes - 1
    steps: List[ProgramStep] = []
    for m in range(messages):
        client = 1 + m % clients
        steps.append(send(client, 0))
        steps.append(send(0, client))
        if (m + 1) % clients == 0:
            steps.extend(checkpoint(pid) for pid in range(num_processes))
    if crash_pid is not None:
        steps.append(crash(crash_pid))
    if messages % clients != 0 or crash_pid is not None or messages == 0:
        steps.extend(checkpoint(pid) for pid in range(num_processes))
    return tuple(steps)


def gossip_program(
    num_processes: int,
    rounds: int,
    *,
    fanout: int = 2,
    crash_pid: Optional[int] = None,
) -> Tuple[ProgramStep, ...]:
    """A gossip fan-out: the explorable skeleton of the gossip workload
    family (:mod:`repro.simulation.workloads`).

    In round ``r`` the origin ``r % n`` pushes to its ``fanout`` ring
    successors (the deterministic stand-in for the workload's random peer
    sample), then every process takes a basic checkpoint.  With
    ``crash_pid`` set, that process crashes before the final round.
    """
    if rounds < 0:
        raise ValueError("the round budget must be non-negative")
    if not 1 <= fanout < num_processes:
        raise ValueError("fanout must be between 1 and num_processes - 1")
    steps: List[ProgramStep] = []
    for r in range(rounds):
        origin = r % num_processes
        for hop in range(1, fanout + 1):
            steps.append(send(origin, (origin + hop) % num_processes))
        steps.extend(checkpoint(pid) for pid in range(num_processes))
    if crash_pid is not None:
        steps.append(crash(crash_pid))
    if crash_pid is not None or rounds == 0:
        steps.extend(checkpoint(pid) for pid in range(num_processes))
    return tuple(steps)


@dataclass
class ScheduleStats:
    """Bookkeeping of one exploration (reported by CLI and benchmark)."""

    executions: int = 0
    schedules: int = 0
    violations: int = 0
    sleep_pruned: int = 0
    deepest: int = 0
    complete: bool = True
    #: Populated when the execution budget ran out: the deterministic
    #: schedule prefix at which the search stopped (resume provenance).
    frontier: Optional[Tuple[Choice, ...]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-encodable form (reports and benchmark rows); the frontier
        appears only when the budget ran out."""
        document: Dict[str, Any] = {
            "executions": self.executions,
            "schedules": self.schedules,
            "violations": self.violations,
            "sleep_pruned": self.sleep_pruned,
            "deepest": self.deepest,
            "complete": self.complete,
        }
        if self.frontier is not None:
            document["frontier"] = [list(token) for token in self.frontier]
        return document


@dataclass(frozen=True)
class Violation:
    """One oracle violation, pinned to the schedule position that exposed it."""

    kind: str
    detail: str
    #: Number of schedule tokens executed when the violation surfaced
    #: (0 == the initial state, before any token).
    step: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        """``[kind @ step N] detail`` (CLI and artifact rendering)."""
        return f"[{self.kind} @ step {self.step}] {self.detail}"


@dataclass
class ExecutionOutcome:
    """What one (prefix) execution observed."""

    #: Choices enabled in the state reached after the executed prefix.
    enabled: Tuple[Choice, ...]
    #: First violation observed, if any (execution stops there).
    violation: Optional[Violation]
    #: Number of schedule tokens actually executed (< len(schedule) when a
    #: violation cut the run short).
    executed: int
    #: True when the prefix ran to quiescence with the program exhausted.
    terminal: bool = False
    #: Events in the recorder when execution stopped (counterexample sizing).
    trace_events: int = 0
    #: Affected-process metadata per enabled choice (sleep-set independence):
    #: maps a choice to the pid it touches, or None for global effects.
    affected: Dict[Choice, Optional[int]] = field(default_factory=dict)
