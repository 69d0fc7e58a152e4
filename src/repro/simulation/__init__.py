"""Deterministic discrete-event simulation substrate.

The paper's system model — asynchronous processes, message passing with loss
and reordering, crash failures with stable storage — is realised here as a
seeded, deterministic discrete-event simulation:

* :mod:`engine` — the event queue and simulated clock;
* :mod:`channels` — declarative network fault models: the paper's uniform
  channel, Gilbert–Elliott bursty loss, duplication, per-link latency
  matrices and timed partition schedules;
* :mod:`network` — point-to-point channels driven by a pluggable
  :class:`~repro.simulation.channels.ChannelModel`, with per-link random
  streams, an optional FIFO discipline and the ability to drop in-flight
  messages during recovery sessions;
* :mod:`node` — a simulated process: application behaviour, checkpointing
  protocol, dependency vector, stable storage and garbage collector;
* :mod:`trace` — the global execution recorder that turns a run into an
  :class:`repro.causality.EventLog` / :class:`repro.ccp.CCP` for analysis;
* :mod:`workloads` — workload generators (random peer-to-peer, client/server,
  pipeline, ring, the Figure-5 worst case, and fully scripted schedules);
* :mod:`failures` — crash schedules;
* :mod:`runner` — configuration and orchestration of complete experiments.
"""

from repro.simulation.channels import (
    ChannelModel,
    DuplicatingChannel,
    GilbertElliottChannel,
    LatencyMatrixChannel,
    Partition,
    PartitionSchedule,
    UniformChannel,
    available_channels,
    channel_from_mapping,
)
from repro.simulation.engine import SimulationEngine, StopReason
from repro.simulation.failures import FailureModelSpec, FailureSchedule
from repro.simulation.network import Network, NetworkConfig, network_config_from_mapping
from repro.simulation.node import SimulationNode
from repro.simulation.runner import (
    SimulationConfig,
    SimulationResult,
    SimulationRunner,
    run_simulation,
)
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import (
    Action,
    ActionKind,
    ClientServerWorkload,
    PipelineWorkload,
    RingWorkload,
    ScriptedWorkload,
    UniformRandomWorkload,
    Workload,
    WorstCaseWorkload,
    available_workloads,
    make_workload,
    workload_class,
)

__all__ = [
    "Action",
    "ActionKind",
    "ChannelModel",
    "ClientServerWorkload",
    "DuplicatingChannel",
    "FailureModelSpec",
    "FailureSchedule",
    "GilbertElliottChannel",
    "LatencyMatrixChannel",
    "Network",
    "NetworkConfig",
    "Partition",
    "PartitionSchedule",
    "PipelineWorkload",
    "RingWorkload",
    "ScriptedWorkload",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationNode",
    "SimulationResult",
    "SimulationRunner",
    "StopReason",
    "TraceRecorder",
    "UniformChannel",
    "UniformRandomWorkload",
    "Workload",
    "WorstCaseWorkload",
    "available_channels",
    "available_workloads",
    "channel_from_mapping",
    "make_workload",
    "network_config_from_mapping",
    "run_simulation",
    "workload_class",
]
