"""Dynamic membership: join/leave as first-class events.

The paper's model fixes the process set for the whole execution.  This
module relaxes that: a run is provisioned with a *capacity* of
``num_processes`` slots, and a :class:`MembershipSchedule` says which pids
are present from the start, which join mid-run (taking their first
checkpoint ``s_i^0`` at join time), and which leave permanently.

Semantics, pinned here and documented in ``docs/membership.md``:

* **Join** — a dormant slot becomes a live process.  Until its join time a
  pid sends nothing, receives nothing and has no checkpoints, so it is
  invisible to every analysis (its dependency-vector column stays at the
  initial value).
* **Leave** — permanent retirement.  A departed process never crashes, is
  never part of a faulty set, and is excluded from every recovery line
  (its component is pinned to its volatile index, so recovery never rolls
  it back).  By the paper's own obsolescence theory its checkpoints can
  never pin any future recovery line, so *all* of them become garbage at
  departure — the garbage-of-departed invariant the collectors enforce.
* Messages still in flight to or from a leaver at departure are lost
  (the channel model already permits loss, so this adds no new behaviour).

:class:`MembershipError` is the loud replacement for the IndexErrors that
fixed ``num_processes × num_processes`` structures used to raise when an
out-of-range pid appeared.  A :class:`MembershipSchedule` is frozen and
hashable, so it is also the campaign-axis entry: cells carry one and hash its
:meth:`~MembershipSchedule.label` into their identity when it is dynamic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class MembershipError(ValueError):
    """A pid outside the current membership (or capacity) was referenced."""


@dataclass(frozen=True, order=True)
class MembershipEvent:
    """One membership transition: a pid joining or leaving at a time."""

    time: float
    pid: int
    kind: str  # "join" | "leave"

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ValueError(f"unknown membership event kind {self.kind!r}")
        if self.pid < 0:
            raise ValueError("membership events need a non-negative pid")
        if not 0 <= self.time < math.inf:
            raise ValueError(
                f"membership events need a finite non-negative time, got {self.time!r}"
            )


@dataclass(frozen=True)
class MembershipSchedule:
    """The ordered join/leave events of one run.

    ``num_processes`` is the run's *capacity*; pids without a join event
    are members from time 0.  Each pid may join at most once and leave at
    most once, and a joiner's leave must come strictly after its join.
    """

    events: Tuple[MembershipEvent, ...] = ()

    @classmethod
    def static(cls) -> "MembershipSchedule":
        """The fixed-membership schedule every pre-existing run uses."""
        return cls(())

    @classmethod
    def of(
        cls,
        *,
        joins: Iterable[Tuple[float, int]] = (),
        leaves: Iterable[Tuple[float, int]] = (),
    ) -> "MembershipSchedule":
        """Build a schedule from ``(time, pid)`` pairs, validating edges."""
        events = [MembershipEvent(time, pid, "join") for time, pid in joins]
        events.extend(MembershipEvent(time, pid, "leave") for time, pid in leaves)
        schedule = cls(tuple(sorted(events)))
        schedule._validate()
        return schedule

    def _validate(self) -> None:
        join_at: Dict[int, float] = {}
        leave_at: Dict[int, float] = {}
        for event in self.events:
            table = join_at if event.kind == "join" else leave_at
            if event.pid in table:
                raise MembershipError(
                    f"process {event.pid} has more than one {event.kind} event"
                )
            table[event.pid] = event.time
        for pid, leave_time in leave_at.items():
            if pid in join_at and leave_time <= join_at[pid]:
                raise MembershipError(
                    f"process {pid} leaves at {leave_time} but only joins "
                    f"at {join_at[pid]}"
                )

    @property
    def joins(self) -> Tuple[MembershipEvent, ...]:
        """The join events, in time order."""
        return tuple(e for e in self.events if e.kind == "join")

    @property
    def leaves(self) -> Tuple[MembershipEvent, ...]:
        """The leave events, in time order."""
        return tuple(e for e in self.events if e.kind == "leave")

    @property
    def joining_pids(self) -> FrozenSet[int]:
        """Pids that are dormant at time 0 and join mid-run."""
        return frozenset(e.pid for e in self.events if e.kind == "join")

    def initial_members(self, num_processes: int) -> FrozenSet[int]:
        """The pids live at time 0 for a run of the given capacity."""
        return frozenset(range(num_processes)) - self.joining_pids

    def validate_for(
        self, num_processes: int, duration: float = math.inf, scope: str = "run"
    ) -> None:
        """Reject schedules the ``scope`` (a run, a campaign) cannot hold:
        pids beyond its capacity, events at or after its ``duration``."""
        for event in self.events:
            if event.pid >= num_processes:
                raise MembershipError(
                    f"membership schedule names process {event.pid} but the "
                    f"run has only {num_processes} processes "
                    f"(expected pid < {num_processes})"
                )
            if event.time >= duration:
                raise ValueError(
                    f"membership {event.kind} of process {event.pid} at {event.time} "
                    f"falls outside the {scope} duration {duration}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def label(self) -> str:
        """Canonical compact form, e.g. ``membership(join=1@20.0,leave=2@60.0)``.

        Deterministic (joins, then leaves, each by time then pid) because it
        is hashed into campaign cell identities — of dynamic schedules only,
        so every static cell keeps its historical id.
        """
        parts = [f"{e.kind}={e.pid}@{float(e.time)!r}" for e in self.joins + self.leaves]
        return f"membership({','.join(parts)})"

    @classmethod
    def from_mapping(cls, document: Mapping[str, Any]) -> "MembershipSchedule":
        """Build a schedule from ``{"joins": [[t, pid], ...], "leaves": ...}``."""
        unknown = sorted(set(document) - {"joins", "leaves"})
        if unknown:
            raise ValueError(
                f"unknown membership keys: {', '.join(unknown)}; known: joins, leaves"
            )
        return cls.of(
            joins=[(float(t), int(p)) for t, p in document.get("joins", ())],
            leaves=[(float(t), int(p)) for t, p in document.get("leaves", ())],
        )

    def describe(self) -> List[List[Any]]:
        """Compact JSON form for trace headers: ``[[kind, pid, time], ...]``."""
        return [[e.kind, e.pid, e.time] for e in self.events]

    @classmethod
    def from_description(
        cls, description: Sequence[Sequence[Any]]
    ) -> "MembershipSchedule":
        """Rebuild a schedule from its :meth:`describe` form."""
        return cls.from_mapping(
            {
                "joins": [(t, p) for kind, p, t in description if kind == "join"],
                "leaves": [(t, p) for kind, p, t in description if kind == "leave"],
            }
        )


@dataclass
class MembershipView:
    """The mutable membership state a recorder (or runner) threads along.

    Tracks three disjoint pid classes over the run's fixed capacity:
    *members* (live), *dormant* (provisioned, not yet joined) and *departed*
    (permanently retired).
    """

    num_processes: int
    initial_members: Optional[FrozenSet[int]] = None
    _members: Set[int] = field(init=False)
    _departed: Set[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_processes < 0:
            raise ValueError("capacity must be non-negative")
        if self.initial_members is None:
            members: Set[int] = set(range(self.num_processes))
        else:
            members = set(self.initial_members)
            for pid in members:
                self._check_capacity(pid)
        self._members = members
        self._departed = set()

    def _check_capacity(self, pid: int) -> None:
        if not 0 <= pid < self.num_processes:
            raise MembershipError(
                f"process {pid} is outside the run's capacity of "
                f"{self.num_processes} processes (expected pid < "
                f"{self.num_processes})"
            )

    @property
    def members(self) -> FrozenSet[int]:
        """The live pids."""
        return frozenset(self._members)

    @property
    def departed(self) -> FrozenSet[int]:
        """The permanently retired pids."""
        return frozenset(self._departed)

    @property
    def dormant(self) -> FrozenSet[int]:
        """Provisioned pids that have not joined yet."""
        return (
            frozenset(range(self.num_processes)) - self._members - self._departed
        )

    @property
    def live(self) -> Set[int]:
        """The live pids as the view's own set, not a copy: a holder's
        membership test stays one set lookup.  Change it only through
        :meth:`join` and :meth:`leave`."""
        return self._members

    def is_member(self, pid: int) -> bool:
        """Whether ``pid`` is currently live."""
        return pid in self._members

    def join(self, pid: int) -> None:
        """A dormant pid becomes a member."""
        if pid in self._members:
            raise MembershipError(f"process {pid} is already a member")
        if pid in self._departed:
            raise MembershipError(
                f"process {pid} departed and cannot rejoin (leaves are "
                f"permanent)"
            )
        self._check_capacity(pid)
        self._members.add(pid)

    def leave(self, pid: int) -> None:
        """A member retires permanently."""
        if pid in self._departed:
            raise MembershipError(f"process {pid} already departed")
        if pid not in self._members:
            self._check_capacity(pid)
            raise MembershipError(
                f"process {pid} cannot leave: it never joined"
            )
        self._members.discard(pid)
        self._departed.add(pid)
