"""repro — a reproduction of "Optimal Asynchronous Garbage Collection for RDT
Checkpointing Protocols" (Schmidt, Garcia, Pedone, Buzato; ICDCS 2005).

The package implements the paper's contribution — the RDT-LGC asynchronous
garbage collector (Algorithms 1–3), run as the collector of the checkpointing
middleware every backend executes, and merged with FDAS (Algorithm 4) by
pairing it with the ``fdas`` protocol — together with every substrate it
needs: causal ordering and dependency vectors, checkpoint-and-communication
patterns with zigzag-path analysis and the RDT property,
communication-induced checkpointing protocols, rollback-recovery, baseline
garbage collectors and a deterministic discrete-event simulator used for the
empirical evaluation.

Quick start::

    from repro import SimulationConfig, UniformRandomWorkload
    from repro.simulation import run_simulation

    config = SimulationConfig(
        num_processes=4,
        duration=200.0,
        workload=UniformRandomWorkload(),
        protocol="fdas",
        collector="rdt-lgc",
        audit="full",
    )
    result = run_simulation(config)
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced figure and claim.
"""

from repro.causality import (
    CausalOrder,
    DependencyVector,
    Event,
    EventId,
    EventKind,
    EventLog,
)
from repro.ccp import (
    CCP,
    AnalysisCache,
    BruteForceZigzagAnalysis,
    CCPBuilder,
    Checkpoint,
    CheckpointId,
    CheckpointKind,
    GlobalCheckpoint,
    ZigzagAnalysis,
    check_rdt,
    is_consistent_global_checkpoint,
)
from repro.core import (
    GcAudit,
    audit_garbage_collection,
    needless_stable_checkpoints,
    obsolete_stable_checkpoints_corollary1,
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.gc import available_collectors, make_collector
from repro.protocols import available_protocols, make_protocol
from repro.recovery import RecoveryManager, recovery_line
from repro.simulation import (
    ClientServerWorkload,
    FailureSchedule,
    NetworkConfig,
    PipelineWorkload,
    RingWorkload,
    ScriptedWorkload,
    SimulationConfig,
    SimulationResult,
    SimulationRunner,
    UniformRandomWorkload,
    WorstCaseWorkload,
)
from repro.storage import StableStorage

__version__ = "1.0.0"

__all__ = [
    "AnalysisCache",
    "BruteForceZigzagAnalysis",
    "CCP",
    "CCPBuilder",
    "CausalOrder",
    "Checkpoint",
    "CheckpointId",
    "CheckpointKind",
    "ClientServerWorkload",
    "DependencyVector",
    "Event",
    "EventId",
    "EventKind",
    "EventLog",
    "FailureSchedule",
    "GcAudit",
    "GlobalCheckpoint",
    "NetworkConfig",
    "PipelineWorkload",
    "RecoveryManager",
    "RingWorkload",
    "ScriptedWorkload",
    "SimulationConfig",
    "SimulationResult",
    "SimulationRunner",
    "StableStorage",
    "UniformRandomWorkload",
    "WorstCaseWorkload",
    "ZigzagAnalysis",
    "audit_garbage_collection",
    "available_collectors",
    "available_protocols",
    "check_rdt",
    "is_consistent_global_checkpoint",
    "make_collector",
    "make_protocol",
    "needless_stable_checkpoints",
    "obsolete_stable_checkpoints_corollary1",
    "obsolete_stable_checkpoints_theorem1",
    "obsolete_stable_checkpoints_theorem2",
    "recovery_line",
    "__version__",
]
