"""Declarative network fault models: the :class:`ChannelModel` library.

The paper's system model permits exactly two channel misbehaviours: messages
can be *lost* and they can be *reordered* (latency plus jitter); they are
never corrupted.  :class:`UniformChannel` is that model verbatim — the
transport every run used before this module existed.  The remaining models
are *adversarial extensions*: each one relaxes the model along one axis so
the collectors' safety and optimality claims can be stress-tested beyond the
regime the paper evaluated:

* :class:`GilbertElliottChannel` — correlated (bursty) loss from the classic
  two-state Markov channel, instead of i.i.d. drops;
* :class:`DuplicatingChannel` — at-least-once delivery: the wire occasionally
  delivers extra copies of a message (the paper's channels never duplicate);
* :class:`LatencyMatrixChannel` — per-link asymmetric base latencies (a
  "cluster of clusters" topology) instead of one global latency;
* :class:`PartitionSchedule` — timed partitions that heal: while a partition
  is active, application messages crossing the cut are lost.

Channel models are **declarative**: frozen, hashable dataclasses carrying
only scalars and tuples, so they can sit on a campaign grid axis (hashed
into ``cell_id``), be pickled to pool workers, and be serialised into trace
headers via :meth:`ChannelModel.describe`.  All *runtime* state (the
Gilbert–Elliott regime of a link, for example) lives in the
:class:`~repro.simulation.network.Network`, keyed per directed link, and is
driven exclusively by the per-link random streams the network derives from
the engine seed — a fault model on one link can never perturb the draws of
another.

The FIFO/non-FIFO discipline switch and the partition schedule are carried
by :class:`~repro.simulation.network.NetworkConfig` rather than by a channel
model: they constrain *scheduling* across messages, not the fate of one
message, and they compose with every channel model.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Sequence, Tuple, Type

from repro.validation import check_choice

#: Runtime per-link state handed back to the model on every sample.  The
#: concrete type is private to each model (None for the stateless ones).
LinkState = Any


class ChannelModel(abc.ABC):
    """Per-link message fate: how long a copy takes, whether it is lost.

    Subclasses are frozen dataclasses.  The network calls
    :meth:`initial_state` once per directed link and then :meth:`sample`
    once per application message on that link, always with the same per-link
    random stream; the returned tuple holds the latency of every copy to
    deliver (empty = the message is lost on the wire).
    """

    #: Registry key used by :func:`channel_from_mapping` and ``describe()``.
    kind: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description (trace headers, campaign cells)."""

    def initial_state(self) -> LinkState:
        """Fresh runtime state for one directed link (default: stateless)."""
        return None

    @abc.abstractmethod
    def sample(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> Tuple[float, ...]:
        """Latencies of the copies to deliver for one message; ``()`` = lost."""

    @abc.abstractmethod
    def sample_latency(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> float:
        """One latency draw with no loss/duplication (control plane, copies)."""

    def validate_for(self, num_processes: int) -> None:
        """Reject models that cannot serve ``num_processes`` (default: any)."""


def _check_latency(base_latency: float, jitter: float) -> None:
    if base_latency < 0 or jitter < 0:
        raise ValueError("latencies must be non-negative")


def _check_probability(name: str, value: float, *, closed: bool = False) -> None:
    upper_ok = value <= 1.0 if closed else value < 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1]" if closed else "[0, 1)"
        raise ValueError(f"{name} must be in {bound}")


@dataclass(frozen=True)
class UniformChannel(ChannelModel):
    """The paper's transport: base latency plus uniform jitter, i.i.d. loss.

    Byte-identical to the pre-refactor hardcoded behaviour: the same draws,
    in the same order, from the link's stream — one loss draw only when
    ``drop_probability`` is non-zero, then one latency draw.
    """

    base_latency: float = 1.0
    jitter: float = 0.5
    drop_probability: float = 0.0

    kind: ClassVar[str] = "uniform"

    def __post_init__(self) -> None:
        _check_latency(self.base_latency, self.jitter)
        _check_probability("drop probability", self.drop_probability)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "base_latency": self.base_latency,
            "jitter": self.jitter,
            "drop_probability": self.drop_probability,
        }

    def sample(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> Tuple[float, ...]:
        if self.drop_probability and rng.random() < self.drop_probability:
            return ()
        return (self.sample_latency(state, sender, receiver, rng),)

    def sample_latency(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> float:
        return self.base_latency + rng.uniform(0.0, self.jitter)


@dataclass(frozen=True)
class GilbertElliottChannel(ChannelModel):
    """Bursty correlated loss: the classic two-state Gilbert–Elliott channel.

    Each directed link is a Markov chain over a *good* and a *bad* regime
    with per-message loss probabilities ``loss_good``/``loss_bad``.  After
    every message the link transitions with probability ``p_good_to_bad``
    (from good) or ``p_bad_to_good`` (from bad), so loss arrives in bursts
    of mean length ``1 / p_bad_to_good`` messages — the adversary i.i.d.
    drops cannot express, and the one that stresses checkpoint protocols
    whose forced-checkpoint decisions depend on which message survives.
    """

    base_latency: float = 1.0
    jitter: float = 0.5
    loss_good: float = 0.0
    loss_bad: float = 0.5
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.25

    kind: ClassVar[str] = "gilbert-elliott"

    def __post_init__(self) -> None:
        _check_latency(self.base_latency, self.jitter)
        # Total loss in one regime is legitimate (the classic Gilbert channel
        # loses everything while bad); the chain still leaves the regime.
        _check_probability("loss_good", self.loss_good, closed=True)
        _check_probability("loss_bad", self.loss_bad, closed=True)
        _check_probability("p_good_to_bad", self.p_good_to_bad, closed=True)
        _check_probability("p_bad_to_good", self.p_bad_to_good, closed=True)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "base_latency": self.base_latency,
            "jitter": self.jitter,
            "loss_good": self.loss_good,
            "loss_bad": self.loss_bad,
            "p_good_to_bad": self.p_good_to_bad,
            "p_bad_to_good": self.p_bad_to_good,
        }

    def initial_state(self) -> LinkState:
        return {"bad": False}  # every link starts in the good regime

    def sample(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> Tuple[float, ...]:
        loss = self.loss_bad if state["bad"] else self.loss_good
        lost = rng.random() < loss
        flip = self.p_bad_to_good if state["bad"] else self.p_good_to_bad
        if rng.random() < flip:
            state["bad"] = not state["bad"]
        if lost:
            return ()
        return (self.sample_latency(state, sender, receiver, rng),)

    def sample_latency(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> float:
        return self.base_latency + rng.uniform(0.0, self.jitter)


@dataclass(frozen=True)
class DuplicatingChannel(ChannelModel):
    """At-least-once delivery: extra copies of delivered messages.

    Wraps any other channel model: the inner model decides loss and the
    latency of the first copy; with probability ``duplicate_probability``
    the wire then delivers ``copies - 1`` additional copies, each with an
    independent latency draw (so a duplicate can even arrive *before* the
    copy the inner model scheduled — the network treats whichever copy
    lands first as the real receive).
    """

    channel: ChannelModel = field(default_factory=UniformChannel)
    duplicate_probability: float = 0.1
    copies: int = 2

    kind: ClassVar[str] = "duplicating"

    def __post_init__(self) -> None:
        _check_probability(
            "duplicate probability", self.duplicate_probability, closed=True
        )
        if self.copies < 2:
            raise ValueError("a duplicating channel needs copies >= 2")
        if isinstance(self.channel, DuplicatingChannel):
            raise ValueError("duplicating channels do not nest")

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "channel": self.channel.describe(),
            "duplicate_probability": self.duplicate_probability,
            "copies": self.copies,
        }

    def initial_state(self) -> LinkState:
        return self.channel.initial_state()

    def sample(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> Tuple[float, ...]:
        delivered = self.channel.sample(state, sender, receiver, rng)
        if not delivered:
            return delivered
        if rng.random() >= self.duplicate_probability:
            return delivered
        extras = tuple(
            self.channel.sample_latency(state, sender, receiver, rng)
            for _ in range(self.copies - 1)
        )
        return delivered + extras

    def sample_latency(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> float:
        return self.channel.sample_latency(state, sender, receiver, rng)

    def validate_for(self, num_processes: int) -> None:
        self.channel.validate_for(num_processes)


@dataclass(frozen=True)
class LatencyMatrixChannel(ChannelModel):
    """Per-link asymmetric base latencies: ``latencies[sender][receiver]``.

    Models a heterogeneous topology (co-located racks vs a WAN hop) where
    latency is a property of the *link*, not of the system.  Jitter and
    i.i.d. loss apply uniformly on top of every link's base.
    """

    latencies: Tuple[Tuple[float, ...], ...] = ()
    jitter: float = 0.5
    drop_probability: float = 0.0

    kind: ClassVar[str] = "latency-matrix"

    def __post_init__(self) -> None:
        if not self.latencies:
            raise ValueError("a latency matrix channel needs a latency matrix")
        size = len(self.latencies)
        for row in self.latencies:
            if len(row) != size:
                raise ValueError("the latency matrix must be square")
            for value in row:
                if value < 0:
                    raise ValueError("latencies must be non-negative")
        _check_latency(0.0, self.jitter)
        _check_probability("drop probability", self.drop_probability)

    @classmethod
    def of(
        cls,
        matrix: Sequence[Sequence[float]],
        *,
        jitter: float = 0.5,
        drop_probability: float = 0.0,
    ) -> "LatencyMatrixChannel":
        """Build from any nested sequence (freezes it into tuples)."""
        return cls(
            latencies=tuple(tuple(float(v) for v in row) for row in matrix),
            jitter=jitter,
            drop_probability=drop_probability,
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "latencies": [list(row) for row in self.latencies],
            "jitter": self.jitter,
            "drop_probability": self.drop_probability,
        }

    def sample(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> Tuple[float, ...]:
        if self.drop_probability and rng.random() < self.drop_probability:
            return ()
        return (self.sample_latency(state, sender, receiver, rng),)

    def sample_latency(
        self, state: LinkState, sender: int, receiver: int, rng: random.Random
    ) -> float:
        return self.latencies[sender][receiver] + rng.uniform(0.0, self.jitter)

    def validate_for(self, num_processes: int) -> None:
        size = len(self.latencies)
        if size < num_processes:
            raise ValueError(
                f"the latency matrix is {size}x{size} (pids 0..{size - 1}) but "
                f"the run needs capacity for {num_processes} processes — pid "
                f"{num_processes - 1} has no latency row"
            )


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Partition:
    """One timed partition of the process set, active on ``[start, end)``.

    ``groups`` lists disjoint blocks of processes; two processes can
    communicate while the partition is active iff they sit in the same
    block.  Processes not named by any block implicitly form one extra
    block together (so ``groups=((0, 1),)`` splits ``{0, 1}`` from the
    rest of the system).
    """

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError("a partition needs start < end")
        if self.start < 0:
            raise ValueError("partitions cannot start before time 0")
        if not self.groups:
            raise ValueError("a partition needs at least one group")
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ValueError("partition groups cannot be empty")
            for pid in group:
                if pid < 0:
                    raise ValueError("process ids must be non-negative")
                if pid in seen:
                    raise ValueError(f"process {pid} appears in two groups")
                seen.add(pid)

    def active_at(self, time: float) -> bool:
        """True while the partition is in effect (end-exclusive)."""
        return self.start <= time < self.end

    def separates(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` sit in different blocks of this partition."""
        return self._block_of(a) != self._block_of(b)

    def _block_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return -1  # the implicit block of every unlisted process

    def describe(self) -> Dict[str, Any]:
        """Canonical JSON-able description."""
        return {
            "start": self.start,
            "end": self.end,
            "groups": [list(group) for group in self.groups],
        }


@dataclass(frozen=True)
class PartitionSchedule:
    """The timed partitions of one run (possibly overlapping)."""

    partitions: Tuple[Partition, ...] = ()

    @classmethod
    def none(cls) -> "PartitionSchedule":
        """A schedule with no partitions (the paper's connected network)."""
        return cls(())

    @classmethod
    def of(
        cls,
        entries: Iterable[Tuple[float, float, Sequence[Sequence[int]]]],
    ) -> "PartitionSchedule":
        """Build from ``(start, end, groups)`` triples."""
        return cls(
            tuple(
                Partition(
                    start=float(start),
                    end=float(end),
                    groups=tuple(tuple(int(pid) for pid in group) for group in groups),
                )
                for start, end, groups in entries
            )
        )

    @classmethod
    def from_mapping(
        cls, entries: Iterable[Mapping[str, Any]]
    ) -> "PartitionSchedule":
        """Build from JSON-style ``{"start", "end", "groups"}`` mappings."""
        return cls.of(
            (entry["start"], entry["end"], entry["groups"]) for entry in entries
        )

    def separated(self, a: int, b: int, time: float) -> bool:
        """True if any active partition severs the link ``a -> b`` at ``time``."""
        return any(
            partition.active_at(time) and partition.separates(a, b)
            for partition in self.partitions
        )

    def transitions(self) -> List[Tuple[float, str, Partition]]:
        """Every cut/heal instant, time-ordered: ``(time, kind, partition)``."""
        events: List[Tuple[float, str, Partition]] = []
        for partition in self.partitions:
            events.append((partition.start, "cut", partition))
            events.append((partition.end, "heal", partition))
        events.sort(key=lambda item: (item[0], item[1]))
        return events

    def validate_for(self, num_processes: int) -> None:
        """Reject schedules naming processes the run does not have."""
        for partition in self.partitions:
            for group in partition.groups:
                for pid in group:
                    if pid >= num_processes:
                        raise ValueError(
                            f"partition on [{partition.start}, {partition.end}) "
                            f"names process {pid} but the run has only "
                            f"{num_processes} processes (pids 0.."
                            f"{num_processes - 1})"
                        )

    def describe(self) -> List[Dict[str, Any]]:
        """Canonical JSON-able description."""
        return [partition.describe() for partition in self.partitions]

    def __bool__(self) -> bool:
        return bool(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)


# ----------------------------------------------------------------------
# The channel-model kinds, fixed at import
# ----------------------------------------------------------------------
_CHANNELS: Dict[str, Type[ChannelModel]] = {
    cls.kind: cls
    for cls in (
        UniformChannel,
        GilbertElliottChannel,
        DuplicatingChannel,
        LatencyMatrixChannel,
    )
}


def available_channels() -> List[str]:
    """Names of all channel-model kinds."""
    return sorted(_CHANNELS)


def channel_from_mapping(document: Mapping[str, Any]) -> ChannelModel:
    """Build a channel model from its :meth:`ChannelModel.describe` mapping.

    The inverse of ``describe()``: campaign specs written as JSON use this
    to put fault models on the ``networks`` grid axis.
    """
    params = dict(document)
    kind = params.pop("kind", None)
    check_choice("kind", kind, available_channels())
    cls = _CHANNELS[kind]
    if cls is DuplicatingChannel and "channel" in params:
        params["channel"] = channel_from_mapping(params["channel"])
    if cls is LatencyMatrixChannel and "latencies" in params:
        params["latencies"] = tuple(
            tuple(float(v) for v in row) for row in params["latencies"]
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for channel {kind!r}: {exc}") from None


def channel_label(description: Mapping[str, Any]) -> str:
    """A compact, distinct label for a channel description (table group keys).

    Renders the kind plus every parameter that differs from the model's
    dataclass default — ``gilbert-elliott(loss_bad=0.9)`` — so two different
    parameterizations of the same model never share a label (and hence never
    silently pool into one aggregation group), while a default-parameter
    model labels as just its kind.  Nested channels (duplication) render
    recursively; latency matrices render as a content digest (the full
    matrix would drown the table).
    """
    kind = str(description.get("kind", "?"))
    cls = _CHANNELS.get(kind)
    defaults: Dict[str, Any] = {}
    if cls is not None:
        for field_info in dataclasses.fields(cls):
            if field_info.default is not dataclasses.MISSING:
                defaults[field_info.name] = field_info.default
            elif field_info.default_factory is not dataclasses.MISSING:
                defaults[field_info.name] = field_info.default_factory()
    parts: List[str] = []
    for key in sorted(description):
        if key == "kind":
            continue
        value = description[key]
        if key == "channel" and isinstance(value, Mapping):
            default = defaults.get("channel")
            if isinstance(default, ChannelModel) and default.describe() == dict(value):
                continue
            parts.append(f"channel={channel_label(value)}")
            continue
        if key == "latencies":
            canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:6]
            parts.append(f"latencies#{digest}")
            continue
        default = defaults.get(key, dataclasses.MISSING)
        if default is not dataclasses.MISSING and value == default:
            continue
        parts.append(f"{key}={value}")
    return kind + (f"({','.join(parts)})" if parts else "")


__all__ = [
    "ChannelModel",
    "UniformChannel",
    "GilbertElliottChannel",
    "DuplicatingChannel",
    "LatencyMatrixChannel",
    "Partition",
    "PartitionSchedule",
    "available_channels",
    "channel_from_mapping",
    "channel_label",
]
