"""Workload generators.

A workload describes *what the application does*: when each process sends
messages to whom and when it takes basic checkpoints.  Workloads draw a
deterministic, sorted list of action keys (:meth:`Workload.keys`) from a
seeded random generator; the runner streams them to the engine, and
:meth:`Workload.generate` is the same list as :class:`Action` records.
Forced checkpoints are not part of the workload — they are decided online by
the checkpointing protocol.

Provided workloads:

* :class:`UniformRandomWorkload` — every process messages uniformly random
  peers and takes basic checkpoints at exponential intervals (the generic
  workload of the evaluation study);
* :class:`ClientServerWorkload` — clients call a single server, which answers;
  models the asymmetric communication the paper's motivation mentions;
* :class:`PipelineWorkload` — a linear pipeline of stages, stage ``i`` feeding
  stage ``i+1``;
* :class:`RingWorkload` — a token-style ring, each process feeding its
  successor;
* :class:`WorstCaseWorkload` — the round-based schedule that drives RDT-LGC to
  its ``n`` retained checkpoints per process bound (Figure 5);
* :class:`ScriptedWorkload` — an explicit list of actions, used to reproduce
  the paper's hand-drawn figures event for event.

Topology-aware families (datacenter-shaped traffic; pair them with the
matching fault models from :func:`repro.scenarios.experiments` — a
``LatencyMatrixChannel`` for the region layout, inter-region
``PartitionSchedule``\\s for WAN cuts):

* :class:`ZipfClientServerWorkload` — clients call one of several servers
  picked with Zipf skew, so a hot server accumulates causal dependencies
  from almost everyone;
* :class:`GossipWorkload` — epidemic broadcast: each process periodically
  pushes to a random fan-out of peers;
* :class:`HierarchicalWorkload` — region clusters with biased local traffic
  and occasional cross-region messages.
"""

from __future__ import annotations

import abc
import enum
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type


class ActionKind(enum.Enum):
    """What a workload action asks a process to do."""

    SEND = "send"
    CHECKPOINT = "checkpoint"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The components of :meth:`Action.sort_key`: ``(time, pid, kind.value,
#: target or -1)`` — what the generators collect and sort before any
#: :class:`Action` exists.
ActionKey = Tuple[float, int, str, int]
_SEND = ActionKind.SEND.value
_CHECKPOINT = ActionKind.CHECKPOINT.value
_KINDS = {kind.value: kind for kind in ActionKind}


class _ActionFields(NamedTuple):
    time: float
    pid: int
    kind: ActionKind
    target: Optional[int] = None


class Action(_ActionFields):
    """A timed application action: an immutable, tuple-backed record.

    Comparing two actions with ``<`` is deliberately useless: the tuple
    comparison falls through to the :class:`ActionKind` enum (unorderable —
    ``TypeError``) and to ``Optional[int]`` targets (``None`` vs ``int``)
    whenever two actions share ``(time, pid)``.  Ordering is explicit via
    :meth:`Action.sort_key` instead.
    """

    __slots__ = ()

    def __new__(
        cls, time: float, pid: int, kind: ActionKind, target: Optional[int] = None
    ) -> "Action":
        if target is None and kind is ActionKind.SEND:
            raise ValueError("SEND actions need a target process")
        return tuple.__new__(cls, (time, pid, kind, target))

    def sort_key(self) -> ActionKey:
        """The canonical schedule order: time, process, then a deterministic
        kind/target tiebreak so equal-timestamp sorts are stable across runs."""
        return (self.time, self.pid, self.kind.value, -1 if self.target is None else self.target)

    @classmethod
    def of_key(cls, key: ActionKey) -> "Action":
        """The action whose :meth:`sort_key` is ``key``."""
        time, pid, kind, target = key
        return cls(time, pid, _KINDS[kind], None if target < 0 else target)


class Workload(abc.ABC):
    """Base class for workload generators."""

    name = "abstract"

    @abc.abstractmethod
    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        """The :meth:`Action.sort_key` of every action of one run, sorted.

        The runner streams them to the engine, which refuses a batch out of
        time order, and builds one handler per distinct ``(pid, kind,
        target)``: no :class:`Action` exists per action.
        """

    def generate(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[Action]:
        """The actions of :meth:`keys`, as records, in the same order."""
        return [Action.of_key(key) for key in self.keys(num_processes, duration, rng)]

    @staticmethod
    def _basic_checkpoints(
        keys: List[ActionKey], pid: int, mean_gap: float, duration: float, rng: random.Random
    ) -> None:
        """Add ``pid``'s basic checkpoints, at exponential intervals, to ``keys``."""
        time = rng.expovariate(1.0 / mean_gap)
        while time < duration:
            keys.append((time, pid, _CHECKPOINT, -1))
            time += rng.expovariate(1.0 / mean_gap)


class UniformRandomWorkload(Workload):
    """Peer-to-peer traffic with random partners and random basic checkpoints."""

    name = "uniform-random"

    def __init__(
        self,
        *,
        mean_message_gap: float = 2.0,
        mean_checkpoint_gap: float = 10.0,
    ) -> None:
        if mean_message_gap <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("mean gaps must be positive")
        self._message_gap = mean_message_gap
        self._checkpoint_gap = mean_checkpoint_gap

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        for pid in range(num_processes):
            time = rng.expovariate(1.0 / self._message_gap)
            while time < duration and num_processes > 1:
                target = rng.randrange(num_processes - 1)
                if target >= pid:
                    target += 1
                keys.append((time, pid, _SEND, target))
                time += rng.expovariate(1.0 / self._message_gap)
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class ClientServerWorkload(Workload):
    """Clients send requests to process 0, which answers each client."""

    name = "client-server"

    def __init__(
        self,
        *,
        mean_request_gap: float = 3.0,
        server_think_time: float = 1.0,
        mean_checkpoint_gap: float = 12.0,
    ) -> None:
        if mean_request_gap <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("mean gaps must be positive")
        if server_think_time < 0:
            raise ValueError("the server think time must be non-negative")
        self._request_gap = mean_request_gap
        self._think_time = server_think_time
        self._checkpoint_gap = mean_checkpoint_gap

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        if num_processes < 2:
            raise ValueError("the client/server workload needs at least two processes")
        keys: List[ActionKey] = []
        server = 0
        for client in range(1, num_processes):
            time = rng.expovariate(1.0 / self._request_gap)
            while time < duration:
                keys.append((time, client, _SEND, server))
                reply_time = time + self._think_time + rng.uniform(0.0, self._think_time)
                if reply_time < duration:
                    keys.append((reply_time, server, _SEND, client))
                time += rng.expovariate(1.0 / self._request_gap)
        for pid in range(num_processes):
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class PipelineWorkload(Workload):
    """A linear pipeline: stage ``i`` periodically feeds stage ``i + 1``."""

    name = "pipeline"

    def __init__(
        self,
        *,
        stage_period: float = 2.0,
        mean_checkpoint_gap: float = 10.0,
    ) -> None:
        if stage_period <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("workload parameters must be positive")
        self._stage_period = stage_period
        self._checkpoint_gap = mean_checkpoint_gap

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        for pid in range(num_processes - 1):
            time = self._stage_period * (1.0 + 0.1 * pid)
            while time < duration:
                keys.append((time, pid, _SEND, pid + 1))
                time += self._stage_period
        for pid in range(num_processes):
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class RingWorkload(Workload):
    """Each process periodically sends to its successor on a ring."""

    name = "ring"

    def __init__(
        self,
        *,
        period: float = 3.0,
        mean_checkpoint_gap: float = 10.0,
    ) -> None:
        if period <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("workload parameters must be positive")
        self._period = period
        self._checkpoint_gap = mean_checkpoint_gap

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        for pid in range(num_processes):
            time = self._period * (1.0 + pid / max(num_processes, 1))
            while time < duration:
                keys.append((time, pid, _SEND, (pid + 1) % num_processes))
                time += self._period
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class WorstCaseWorkload(Workload):
    """The schedule that drives every process to retain ``n`` stable checkpoints.

    Round ``k`` (``k = 1 .. n``): every process takes a basic checkpoint, then
    process ``k - 1`` broadcasts one message to every other process.  Each
    broadcast carries new causal information only about its sender, so at the
    receiver it pins (via ``UC``) the receiver's *current* last checkpoint —
    a different one each round.  A final round of checkpoints leaves every
    process retaining exactly ``n`` stable checkpoints, the paper's tight
    per-process bound (Figure 5); the transient global occupancy during that
    final round is ``n (n + 1)``.
    """

    name = "worst-case"

    def __init__(self, *, round_length: float = 10.0) -> None:
        if round_length <= 0:
            raise ValueError("round length must be positive")
        self._round_length = round_length

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        for round_index in range(1, num_processes + 1):
            base = round_index * self._round_length
            for pid in range(num_processes):
                keys.append((base, pid, _CHECKPOINT, -1))
            sender = round_index - 1
            for pid in range(num_processes):
                if pid != sender:
                    keys.append((base + self._round_length / 2, sender, _SEND, pid))
        final = (num_processes + 1) * self._round_length
        for pid in range(num_processes):
            keys.append((final, pid, _CHECKPOINT, -1))
        keys.sort()
        return keys

    def required_duration(self, num_processes: int) -> float:
        """The simulated time needed to play the full schedule."""
        return (num_processes + 2) * self._round_length


class ZipfClientServerWorkload(Workload):
    """Clients call one of ``num_servers`` servers with Zipf-skewed choice.

    Servers are pids ``0 .. num_servers - 1``; the remaining pids are
    clients.  Each request picks the server of rank ``k`` with probability
    proportional to ``1 / (k + 1) ** skew`` — the hot-key distribution of
    real key-value front-ends.  The hot server becomes a causal hub: its
    checkpoints are known to almost every client, which is exactly the
    regime where Theorem-2 knowledge lets an optimal collector eliminate
    aggressively.
    """

    name = "zipf-client-server"

    def __init__(
        self,
        *,
        num_servers: int = 2,
        skew: float = 1.2,
        mean_request_gap: float = 3.0,
        server_think_time: float = 1.0,
        mean_checkpoint_gap: float = 12.0,
    ) -> None:
        if num_servers < 1:
            raise ValueError("the workload needs at least one server")
        if skew <= 0:
            raise ValueError("the Zipf skew must be positive")
        if mean_request_gap <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("mean gaps must be positive")
        if server_think_time < 0:
            raise ValueError("the server think time must be non-negative")
        self._num_servers = num_servers
        self._skew = skew
        self._request_gap = mean_request_gap
        self._think_time = server_think_time
        self._checkpoint_gap = mean_checkpoint_gap

    def _pick_server(self, rng: random.Random, num_servers: int) -> int:
        weights = [1.0 / (rank + 1) ** self._skew for rank in range(num_servers)]
        total = sum(weights)
        draw = rng.random() * total
        for server, weight in enumerate(weights):
            draw -= weight
            if draw < 0:
                return server
        return num_servers - 1

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        if num_processes <= self._num_servers:
            raise ValueError(
                f"the zipf client/server workload needs at least "
                f"{self._num_servers + 1} processes "
                f"({self._num_servers} servers plus one client)"
            )
        keys: List[ActionKey] = []
        for client in range(self._num_servers, num_processes):
            time = rng.expovariate(1.0 / self._request_gap)
            while time < duration:
                server = self._pick_server(rng, self._num_servers)
                keys.append((time, client, _SEND, server))
                reply_time = time + self._think_time + rng.uniform(0.0, self._think_time)
                if reply_time < duration:
                    keys.append((reply_time, server, _SEND, client))
                time += rng.expovariate(1.0 / self._request_gap)
        for pid in range(num_processes):
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class GossipWorkload(Workload):
    """Epidemic broadcast: periodic pushes to a random fan-out of peers.

    Every gossip round spreads the sender's causal knowledge to ``fanout``
    peers at once, so dependency information disseminates in ``O(log n)``
    rounds — the fastest-mixing regime for checkpoint-knowledge propagation
    and the stress case for broadcast-heavy recovery lines.
    """

    name = "gossip"

    def __init__(
        self,
        *,
        fanout: int = 2,
        mean_round_gap: float = 4.0,
        mean_checkpoint_gap: float = 10.0,
    ) -> None:
        if fanout < 1:
            raise ValueError("the gossip fan-out must be at least one")
        if mean_round_gap <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("mean gaps must be positive")
        self._fanout = fanout
        self._round_gap = mean_round_gap
        self._checkpoint_gap = mean_checkpoint_gap

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        for pid in range(num_processes):
            time = rng.expovariate(1.0 / self._round_gap)
            while time < duration and num_processes > 1:
                peers = [p for p in range(num_processes) if p != pid]
                fanout = min(self._fanout, len(peers))
                for target in rng.sample(peers, fanout):
                    keys.append((time, pid, _SEND, target))
                time += rng.expovariate(1.0 / self._round_gap)
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class HierarchicalWorkload(Workload):
    """Region clusters: mostly-local traffic with occasional WAN messages.

    Processes are grouped into contiguous regions of ``region_size`` pids
    (the last region absorbs any remainder).  Each message stays inside the
    sender's region with probability ``local_bias``; otherwise it crosses to
    a uniformly random process of another region.  Pair it with the
    region-shaped :class:`~repro.simulation.channels.LatencyMatrixChannel`
    and inter-region partitions from
    :func:`repro.scenarios.experiments.hierarchical_network_config`.
    """

    name = "hierarchical"

    def __init__(
        self,
        *,
        region_size: int = 3,
        local_bias: float = 0.8,
        mean_message_gap: float = 2.0,
        mean_checkpoint_gap: float = 10.0,
    ) -> None:
        if region_size < 1:
            raise ValueError("regions need at least one process")
        if not 0.0 <= local_bias <= 1.0:
            raise ValueError("the local bias must be in [0, 1]")
        if mean_message_gap <= 0 or mean_checkpoint_gap <= 0:
            raise ValueError("mean gaps must be positive")
        self._region_size = region_size
        self._local_bias = local_bias
        self._message_gap = mean_message_gap
        self._checkpoint_gap = mean_checkpoint_gap

    def region_of(self, pid: int, num_processes: int) -> int:
        """The region index of ``pid`` (the last region absorbs the tail)."""
        num_regions = max(num_processes // self._region_size, 1)
        return min(pid // self._region_size, num_regions - 1)

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        keys: List[ActionKey] = []
        regions: Dict[int, List[int]] = {}
        for pid in range(num_processes):
            regions.setdefault(self.region_of(pid, num_processes), []).append(pid)
        for pid in range(num_processes):
            home = self.region_of(pid, num_processes)
            local_peers = [p for p in regions[home] if p != pid]
            remote_peers = [
                p for p in range(num_processes)
                if self.region_of(p, num_processes) != home
            ]
            time = rng.expovariate(1.0 / self._message_gap)
            while time < duration and num_processes > 1:
                go_local = local_peers and (
                    not remote_peers or rng.random() < self._local_bias
                )
                pool = local_peers if go_local else remote_peers
                keys.append((time, pid, _SEND, rng.choice(pool)))
                time += rng.expovariate(1.0 / self._message_gap)
            self._basic_checkpoints(keys, pid, self._checkpoint_gap, duration, rng)
        keys.sort()
        return keys


class ScriptedWorkload(Workload):
    """An explicit, fully deterministic list of actions."""

    name = "scripted"

    def __init__(self, actions: Sequence[Action]) -> None:
        self._actions = list(actions)

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        for action in self._actions:
            for role, pid in (("process", action.pid), ("send target", action.target)):
                if pid is not None and not 0 <= pid < num_processes:
                    raise ValueError(
                        f"scripted action {action} names {role} {pid} but the "
                        f"run has processes 0..{num_processes - 1}"
                    )
        return sorted(action.sort_key() for action in self._actions)


# ----------------------------------------------------------------------
# The workload generators, fixed at import
# ----------------------------------------------------------------------
# The campaign layer describes workloads declaratively — ``(name, params)``
# rather than instances — so that sweep cells stay picklable and hashable.
# Only generative workloads have a name here: :class:`ScriptedWorkload` needs
# an explicit action list and cannot be built from scalar parameters.
_WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        UniformRandomWorkload,
        ClientServerWorkload,
        PipelineWorkload,
        RingWorkload,
        WorstCaseWorkload,
        ZipfClientServerWorkload,
        GossipWorkload,
        HierarchicalWorkload,
    )
}


def available_workloads() -> List[str]:
    """Names of all workload generators."""
    return sorted(_WORKLOADS)


def workload_class(name: str) -> Type[Workload]:
    """The workload class named ``name``."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(sorted(_WORKLOADS))}"
        ) from None


def make_workload(name: str, **params: object) -> Workload:
    """Instantiate the workload named ``name``."""
    return workload_class(name)(**params)  # type: ignore[arg-type]

