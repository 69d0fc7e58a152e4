"""Schedule-space exploration with theorem oracles (the verification subsystem).

Random seeds sample *one* delivery order per run; an interleaving-dependent
collector bug that needs a specific order can survive every seed drawn.
``repro.explore`` closes that axis: it enumerates message-delivery
interleavings of small, fixed configurations — exhaustively at the smallest
sizes, under a sleep-set reduction and a deterministic budgeted frontier for
larger ones — and checks every explored state against an oracle stack built
from the paper's own characterisations (Theorems 1/2 retention with
brute-force cross-checks, Theorem-4/5 safety + optimality audits per
collector, RDT preservation per protocol, recovery-line validity after
injected crashes).  Violations are shrunk to 1-minimal counterexamples and
persisted as replayable :mod:`repro.traceio` artifacts, so every failure is
a one-command repro::

    from repro.explore import ExploreConfig, explore, ring_program

    config = ExploreConfig(
        num_processes=2, program=ring_program(2, 6), collector="rdt-lgc"
    )
    result = explore(config)          # exhaustive at this size
    assert result.ok

CLI: ``python -m repro explore {run,sweep,replay}``.
"""

from repro.explore.controller import PendingDeliveries
from repro.explore.executor import ScheduleExecutor
from repro.explore.explorer import (
    Counterexample,
    ExplorationResult,
    SweepEntry,
    explore,
    sweep,
)
from repro.explore.oracles import OracleStack
from repro.explore.program import (
    ADVANCE,
    DELIVER,
    Choice,
    ExecutionOutcome,
    ExploreConfig,
    ProgramStep,
    ScheduleStats,
    StepKind,
    Violation,
    checkpoint,
    crash,
    gossip_program,
    ring_program,
    send,
    star_program,
    validate_schedule,
)
from repro.explore.shrink import (
    CounterexampleReplay,
    ShrunkCounterexample,
    counterexample_summary,
    persist_counterexample,
    replay_counterexample,
    shrink,
)

__all__ = [
    "ADVANCE",
    "Choice",
    "Counterexample",
    "CounterexampleReplay",
    "DELIVER",
    "ExecutionOutcome",
    "ExplorationResult",
    "ExploreConfig",
    "OracleStack",
    "PendingDeliveries",
    "ProgramStep",
    "ScheduleExecutor",
    "ScheduleStats",
    "ShrunkCounterexample",
    "StepKind",
    "SweepEntry",
    "Violation",
    "checkpoint",
    "counterexample_summary",
    "crash",
    "explore",
    "gossip_program",
    "persist_counterexample",
    "replay_counterexample",
    "ring_program",
    "send",
    "shrink",
    "star_program",
    "sweep",
    "validate_schedule",
]
