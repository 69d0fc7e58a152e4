"""Workload generators.

A workload describes *what the application does*: when each process sends
messages to whom and when it takes basic checkpoints.  Forced checkpoints
are not part of the workload — they are decided online by the checkpointing
protocol.

A workload is a deterministic, sorted list of action keys
(:meth:`Workload.keys`, ``(time, pid, kind, target)``) drawn from a seeded
random generator, and :meth:`Workload.generate` is the same list as
:class:`Action` records.  The runner does not build that list.  Every
generator here is a :class:`DrawnWorkload`: :meth:`DrawnWorkload.draw` makes
all of a run's draws up front, in a fixed order, and writes them into
:class:`ActionColumns` — per process and kind of action, an ``array('d')``
of times and an ``array('i')`` of targets, 8 to 12 bytes an action.
:meth:`Workload.windows` then hands the keys out one time window at a time,
cut from every run by bisection and sorted, and the runner gives each window
to the engine as its stream reaches it; ``keys()`` is the windows
concatenated.  A workload that only defines ``keys()`` is one window.

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
import math
import random
from array import array
from bisect import bisect_right
from itertools import chain, islice, repeat
from operator import le
from typing import (
    Any, Dict, Iterator, List, NamedTuple, Optional, Protocol, Sequence, Tuple, Type,
)


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
        if target is not None and kind is ActionKind.CHECKPOINT:
            raise ValueError(f"a CHECKPOINT action has no target, got {target!r}")
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


#: Entries a window takes from the run that fills it first: a window ends at
#: the time where some run reaches this many more entries, so its size grows
#: with the number of runs it cuts.
_RUN_SPAN = 32


class ActionColumns:
    """A run's workload draws, kept as compact columns and handed out by window.

    A generator writes each draw into a *run*: the times of one process and
    one kind of action, an ``array('d')``, with the send targets beside them
    in an ``array('i')`` (a checkpoint run has none: its targets are all
    ``-1``).  Nothing else exists per action until a window is taken.

    Once sealed (:meth:`seal`) the columns are an iterator of *windows*: each
    is every pending entry at or before a horizon, taken from every run by
    bisection, built into :data:`ActionKey` tuples and sorted.  The horizon
    is the earliest time some run reaches :data:`_RUN_SPAN` entries past the
    ones already handed out (none: the rest of every run), and every run is
    cut at the same horizon, so equal times always share a window and the
    windows, concatenated, are the sorted key list.  A window is not held
    once it is returned.
    """

    def __init__(self) -> None:
        #: ``(pid, kind, times, targets or None)`` per run, in drawing order.
        self._drawn: List[Tuple[int, str, array, Optional[array]]] = []
        #: ``[times, next index, pid, kind, targets]`` per run with entries
        #: still to hand out, once sealed.
        self._pending: List[List[Any]] = []
        #: The number of entries, once sealed.
        self.count = 0

    def run(self, pid: int, kind: str) -> Tuple[array, array]:
        """A new run of ``pid``'s actions of ``kind``: its time and target columns."""
        times, targets = array("d"), array("i")
        self._drawn.append((pid, kind, times, targets))
        return times, targets

    def sends(self, pid: int) -> Tuple[array, array]:
        """A new run of ``pid``'s sends: its time and target columns."""
        return self.run(pid, _SEND)

    def checkpoints(self, pid: int) -> array:
        """A new run of ``pid``'s basic checkpoints: its time column."""
        times = array("d")
        self._drawn.append((pid, _CHECKPOINT, times, None))
        return times

    def seal(self) -> "ActionColumns":
        """Put every run in time order and start handing out windows.

        A generator's runs are usually drawn in time order already; one that
        is not (replies of several requests, a script) is sorted here, by
        time alone: a window sorts its keys in full.  A time that is not a
        number raises :class:`ValueError`.
        """
        for pid, kind, times, targets in self._drawn:
            if not times:
                continue
            if not _ascending(times):
                order = sorted(range(len(times)), key=times.__getitem__)
                times[:] = array("d", map(times.__getitem__, order))
                if targets is not None:
                    targets[:] = array("i", map(targets.__getitem__, order))
                if not _ascending(times):
                    raise ValueError(
                        f"workload action times of process {pid} must be numbers, "
                        f"got {[time for time in times if time != time][0]!r}"
                    )
            self._pending.append([times, 0, pid, kind, targets])
            self.count += len(times)
        self._drawn = []
        return self

    def __iter__(self) -> "ActionColumns":
        return self

    def __next__(self) -> List[ActionKey]:
        pending = self._pending
        if not pending:
            raise StopIteration
        # A run with fewer entries left does not bound the window.
        horizon = min(
            (times[start + _RUN_SPAN] for times, start, *_ in pending
             if start + _RUN_SPAN < len(times)),
            default=math.inf,
        )
        window: List[ActionKey] = []
        left: List[List[Any]] = []
        for run in pending:
            times, start, pid, kind, targets = run
            end = bisect_right(times, horizon, start)
            if end > start:
                window.extend(
                    zip(
                        times[start:end],
                        repeat(pid),
                        repeat(kind),
                        repeat(-1) if targets is None else targets[start:end],
                    )
                )
            if end < len(times):
                run[1] = end
                left.append(run)
        self._pending = left
        window.sort()
        return window


def _ascending(times: array) -> bool:
    """Whether ``times`` (not empty) is in time order and holds no NaN."""
    return times[0] == times[0] and all(map(le, times, islice(times, 1, None)))


class _WholeKeys:
    """A key list handed out as the one window, and not held once handed out."""

    def __init__(self, keys: List[ActionKey]) -> None:
        self._keys: Optional[List[ActionKey]] = keys
        self.count = len(keys)

    def __iter__(self) -> "_WholeKeys":
        return self

    def __next__(self) -> List[ActionKey]:
        keys, self._keys = self._keys, None
        if keys is None:
            raise StopIteration
        return keys


class KeyWindows(Protocol):
    """What :meth:`Workload.windows` returns: the sorted windows and their size."""

    #: The number of keys across all windows.
    count: int

    def __iter__(self) -> Iterator[List[ActionKey]]: ...

    def __next__(self) -> List[ActionKey]: ...


class Workload(abc.ABC):
    """Base class for workload generators."""

    name = "abstract"

    @abc.abstractmethod
    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        """The :meth:`Action.sort_key` of every action of one run, sorted.

        The runner hands them to the engine, which refuses a batch out of
        time order, and builds one handler per distinct ``(pid, kind,
        target)``: no :class:`Action` exists per action.
        """

    def windows(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> KeyWindows:
        """The keys of :meth:`keys` in time-ordered windows, for the runner.

        Here the whole list is the one window; a :class:`DrawnWorkload`
        draws into :class:`ActionColumns` and builds one window at a time.
        """
        return _WholeKeys(self.keys(num_processes, duration, rng))

    def generate(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[Action]:
        """The actions of :meth:`keys`, as records, in the same order."""
        return [Action.of_key(key) for key in self.keys(num_processes, duration, rng)]


class DrawnWorkload(Workload):
    """A workload that draws its actions into :class:`ActionColumns`.

    :meth:`draw` makes every random draw, in a fixed order, before the run
    starts; :meth:`windows` then builds the keys one window at a time, and
    :meth:`keys` is the windows concatenated.  A subclass that overrides
    :meth:`keys` alone is one window, as for any :class:`Workload`.
    """

    @abc.abstractmethod
    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        """Write every action of one run into ``columns``, run by run."""

    def keys(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> List[ActionKey]:
        return list(chain.from_iterable(self.windows(num_processes, duration, rng)))

    def windows(
        self, num_processes: int, duration: float, rng: random.Random
    ) -> KeyWindows:
        if type(self).keys is not DrawnWorkload.keys:
            return super().windows(num_processes, duration, rng)
        columns = ActionColumns()
        self.draw(columns, num_processes, duration, rng)
        return columns.seal()

    @staticmethod
    def _basic_checkpoints(
        times: array, mean_gap: float, duration: float, rng: random.Random
    ) -> None:
        """Add a process's basic checkpoints, at exponential intervals, to ``times``."""
        time = rng.expovariate(1.0 / mean_gap)
        while time < duration:
            times.append(time)
            time += rng.expovariate(1.0 / mean_gap)


class UniformRandomWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        for pid in range(num_processes):
            times, targets = columns.sends(pid)
            time = rng.expovariate(1.0 / self._message_gap)
            while time < duration and num_processes > 1:
                target = rng.randrange(num_processes - 1)
                if target >= pid:
                    target += 1
                times.append(time)
                targets.append(target)
                time += rng.expovariate(1.0 / self._message_gap)
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class ClientServerWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        if num_processes < 2:
            raise ValueError("the client/server workload needs at least two processes")
        server = 0
        # One run of replies: it is sorted when the columns are sealed.
        reply_times, reply_targets = columns.sends(server)
        for client in range(1, num_processes):
            times, targets = columns.sends(client)
            time = rng.expovariate(1.0 / self._request_gap)
            while time < duration:
                times.append(time)
                targets.append(server)
                reply_time = time + self._think_time + rng.uniform(0.0, self._think_time)
                if reply_time < duration:
                    reply_times.append(reply_time)
                    reply_targets.append(client)
                time += rng.expovariate(1.0 / self._request_gap)
        for pid in range(num_processes):
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class PipelineWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        for pid in range(num_processes - 1):
            times, targets = columns.sends(pid)
            time = self._stage_period * (1.0 + 0.1 * pid)
            while time < duration:
                times.append(time)
                targets.append(pid + 1)
                time += self._stage_period
        for pid in range(num_processes):
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class RingWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        for pid in range(num_processes):
            times, targets = columns.sends(pid)
            time = self._period * (1.0 + pid / max(num_processes, 1))
            while time < duration:
                times.append(time)
                targets.append((pid + 1) % num_processes)
                time += self._period
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class WorstCaseWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        checkpoints = [columns.checkpoints(pid) for pid in range(num_processes)]
        for round_index in range(1, num_processes + 1):
            base = round_index * self._round_length
            for pid in range(num_processes):
                checkpoints[pid].append(base)
            sender = round_index - 1
            times, targets = columns.sends(sender)
            for pid in range(num_processes):
                if pid != sender:
                    times.append(base + self._round_length / 2)
                    targets.append(pid)
        final = (num_processes + 1) * self._round_length
        for pid in range(num_processes):
            checkpoints[pid].append(final)

    def required_duration(self, num_processes: int) -> float:
        """The simulated time needed to play the full schedule."""
        return (num_processes + 2) * self._round_length


class ZipfClientServerWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        if num_processes <= self._num_servers:
            raise ValueError(
                f"the zipf client/server workload needs at least "
                f"{self._num_servers + 1} processes "
                f"({self._num_servers} servers plus one client)"
            )
        # One run of replies per server: sorted when the columns are sealed.
        replies = [columns.sends(server) for server in range(self._num_servers)]
        for client in range(self._num_servers, num_processes):
            times, targets = columns.sends(client)
            time = rng.expovariate(1.0 / self._request_gap)
            while time < duration:
                server = self._pick_server(rng, self._num_servers)
                times.append(time)
                targets.append(server)
                reply_time = time + self._think_time + rng.uniform(0.0, self._think_time)
                if reply_time < duration:
                    reply_times, reply_targets = replies[server]
                    reply_times.append(reply_time)
                    reply_targets.append(client)
                time += rng.expovariate(1.0 / self._request_gap)
        for pid in range(num_processes):
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class GossipWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        for pid in range(num_processes):
            times, targets = columns.sends(pid)
            time = rng.expovariate(1.0 / self._round_gap)
            while time < duration and num_processes > 1:
                peers = [p for p in range(num_processes) if p != pid]
                fanout = min(self._fanout, len(peers))
                for target in rng.sample(peers, fanout):
                    times.append(time)
                    targets.append(target)
                time += rng.expovariate(1.0 / self._round_gap)
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class HierarchicalWorkload(DrawnWorkload):
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

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
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
            times, targets = columns.sends(pid)
            time = rng.expovariate(1.0 / self._message_gap)
            while time < duration and num_processes > 1:
                go_local = local_peers and (
                    not remote_peers or rng.random() < self._local_bias
                )
                pool = local_peers if go_local else remote_peers
                times.append(time)
                targets.append(rng.choice(pool))
                time += rng.expovariate(1.0 / self._message_gap)
            self._basic_checkpoints(columns.checkpoints(pid), self._checkpoint_gap, duration, rng)


class ScriptedWorkload(DrawnWorkload):
    """An explicit, fully deterministic list of actions."""

    name = "scripted"

    def __init__(self, actions: Sequence[Action]) -> None:
        self._actions = list(actions)

    def draw(
        self, columns: ActionColumns, num_processes: int, duration: float, rng: random.Random
    ) -> None:
        for action in self._actions:
            for role, pid in (("process", action.pid), ("send target", action.target)):
                if pid is not None and not 0 <= pid < num_processes:
                    raise ValueError(
                        f"scripted action {action} names {role} {pid} but the "
                        f"run has processes 0..{num_processes - 1}"
                    )
        # One run per (pid, kind), in script order: sorted when sealed.
        runs: Dict[Tuple[int, str], Tuple[array, array]] = {}
        for action in self._actions:
            time, pid, kind, target = action.sort_key()
            run = runs.get((pid, kind))
            if run is None:
                run = runs[pid, kind] = columns.run(pid, kind)
            run[0].append(time)
            run[1].append(target)


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

