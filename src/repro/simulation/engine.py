"""Discrete-event simulation engine.

A small, dependency-free engine: callbacks are scheduled at absolute simulated
times and executed in time order; ties are broken by scheduling order, which
(together with a seeded random generator) makes every run fully deterministic.

Two sources, one order.  What is scheduled one call at a time
(:meth:`SimulationEngine.schedule_at`: deliveries, timers, crashes — whatever
is *in flight*) lives in a heap.  What arrives already in time order
(:meth:`SimulationEngine.schedule_stream`: a workload's future, handed over
window by window) is kept beside the heap as a stream, and only its current
window exists as entries: the next one is loaded the moment the last loaded
entry fires, before anything else does.  A stream takes one sequence number
at hand-over, so everything scheduled before it sorts before its entries at
equal times and everything scheduled after sorts after them; the stream's
own entries are never compared with each other.  The next callback to fire
is the smaller ``(time, sequence)`` of the heap top and the stream head: the
firing order, ties included, is the one an all-heap engine produces, and an
entry is released the moment it fires.  :meth:`SimulationEngine.schedule_sorted`
is a stream of one window.
"""

from __future__ import annotations

import enum
import heapq
import random
from itertools import islice, repeat
from operator import le
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

Callback = Callable[[], None]
#: One window of a stream: its times, in order, and their callbacks.
Window = Tuple[Sequence[float], Sequence[Callback]]


class StopReason(enum.Enum):
    """Why a :meth:`SimulationEngine.run` call returned."""

    EXHAUSTED = "exhausted"
    """The event queue ran dry.  With ``until`` given the clock is advanced
    to it — but, as with ``UNTIL``, never backwards."""

    UNTIL = "until"
    """Every event at or before ``until`` was processed.  The clock is
    advanced to ``until`` — but never backwards: an ``until`` earlier than
    the current time leaves the clock where it is."""

    MAX_EVENTS = "max_events"
    """The ``max_events`` budget was spent with events still pending.  The
    clock stays at the time of the last executed callback — deliberately
    *strictly before* ``until`` whenever unprocessed events remain there, since
    advancing past pending events would misorder a subsequent ``run``."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SimulationEngine:
    """Event queue and simulated clock."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: List[Tuple[float, int, Callback]] = []
        # The stream's loaded window, latest first: firing its head is a pop().
        # Every entry holds the one sequence number the stream was given.
        self._stream: List[Tuple[float, int, Callback]] = []
        # The stream's windows not loaded yet, and how many entries they hold.
        self._windows: Optional[Iterator[Window]] = None
        self._unloaded = 0
        self._stream_sequence = 0
        self._seed = seed
        self._rng = random.Random(seed)
        self._processed_events = 0

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    @property
    def seed(self) -> int:
        """The seed the run was created with.

        Consumers that need *independent* random streams (the network's
        per-link streams, for example) derive them from this seed rather
        than drawing from :attr:`rng`, so their draws never perturb — and
        are never perturbed by — anyone else's.
        """
        return self._seed

    @property
    def rng(self) -> random.Random:
        """The seeded random generator shared by the run."""
        return self._rng

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed_events

    def pending_events(self) -> int:
        """Number of callbacks still queued."""
        return len(self._queue) + len(self._stream) + self._unloaded

    def peek_time(self) -> Optional[float]:
        """Time of the earliest queued callback, or None if the queue is empty.

        Introspection companion to :meth:`pending_events`: external drivers
        can see how far ``run(until=...)`` would have to go without executing
        anything.
        """
        queue, stream = self._queue, self._stream
        if stream and (not queue or stream[-1] < queue[0]):
            return stream[-1][0]
        return queue[0][0] if queue else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if not time >= self._now:  # one comparison; also false for NaN
            raise ValueError(
                f"cannot schedule an event at time {time}: it is not a number "
                f"or lies in the past (now {self._now})"
            )
        heapq.heappush(self._queue, (time, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("delays must be non-negative")
        self.schedule_at(self._now + delay, callback)

    def schedule_sorted(self, entries: Iterable[Tuple[float, Callback]]) -> None:
        """Schedule ``(time, callback)`` pairs that are already in time order.

        A stream of one window (:meth:`schedule_stream`): exactly
        :meth:`schedule_at` on each pair in turn — same firing order against
        everything else — except that the batch stays out of the heap and is
        checked as a whole first.
        """
        batch = list(entries)
        window = ([time for time, _ in batch], [callback for _, callback in batch])
        # A callable iterator over a list it pops: the window is not held
        # once loaded, so each callback is released when it fires.
        self.schedule_stream(iter([None, window].pop, None), len(window[0]))

    def schedule_stream(self, windows: Iterable[Window], count: int) -> None:
        """Schedule ``count`` callbacks handed over as time-ordered windows.

        Each window is ``(times, callbacks)``, its times in order and no
        earlier than the previous window's.  Exactly :meth:`schedule_at` on
        each entry in turn — same firing order against everything else —
        except that the entries stay out of the heap and only one window is
        loaded at a time: the first now, each next one when the last loaded
        entry fires.  A loaded window is checked as a whole: a time that is
        not a number, lies before ``now`` or before its predecessor raises
        :class:`ValueError` and nothing of it is scheduled (for the first
        window: nothing at all).  A stream handed over while an earlier one
        is still pending is merged the plain way, one :meth:`schedule_at`
        per entry, once every window was checked.
        """
        if self._stream:
            entries: List[Tuple[float, Callback]] = []
            previous = self._now
            for times, callbacks in windows:
                if len(times):
                    self._check(times, previous)
                    entries.extend(zip(times, callbacks))
                    previous = times[-1]
            for time, callback in entries:
                self.schedule_at(time, callback)
            return
        self._windows, self._unloaded = iter(windows), count
        self._stream_sequence = self._sequence
        self._load()
        if self._stream:
            self._sequence += 1

    def _load(self) -> None:
        """Load the stream's next window that has entries (the stream is empty).

        Until it is loaded the stream holds nothing else: a refused window
        leaves nothing of the stream pending.
        """
        windows, unloaded = self._windows, self._unloaded
        assert windows is not None
        self._windows, self._unloaded = None, 0
        for times, callbacks in windows:
            if len(times):
                self._check(times, self._now)
                # In place: a run() in progress holds this very list.
                self._stream.extend(
                    zip(reversed(times), repeat(self._stream_sequence), reversed(callbacks))
                )
                self._windows, self._unloaded = windows, unloaded - len(times)
                return

    def _check(self, times: Sequence[float], previous: float) -> None:
        """Refuse a window whose times are not numbers in order from ``previous``."""
        if times[0] >= previous and all(map(le, times, islice(times, 1, None))):
            return
        for time in times:
            if not time >= previous:  # also false for NaN
                raise ValueError(
                    f"cannot schedule a sorted batch holding time {time} after {previous}: "
                    f"not a number, in the past (now {self._now}) or out of order"
                )
            previous = time

    def close(self) -> None:
        """Drop every pending callback, loaded or not: nothing will run them."""
        self._queue.clear()
        self._stream.clear()
        self._windows, self._unloaded = None, 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> StopReason:
        """Process queued events in time order and report why the run stopped.

        Stop and clock-advance semantics, in precedence order:

        * ``UNTIL`` — the next queued event lies beyond ``until``: the clock is
          advanced to exactly ``until`` (the caller asked to reach it and no
          work remains at or before it).  Checked before the event budget, so
          a run that drains everything up to ``until`` reports ``UNTIL`` even
          if it also used its last budgeted event.
        * ``MAX_EVENTS`` — ``max_events`` callbacks were executed and events
          remain pending.  The clock is **not** advanced to ``until``: it stays
          at the last executed callback's time, because events may still be
          queued at or before ``until`` and silently skipping past them would
          corrupt the timeline of a follow-up ``run``.  Callers that want the
          clock at ``until`` must keep calling ``run`` until it returns
          ``UNTIL`` or ``EXHAUSTED``.
        * ``EXHAUSTED`` — the queue ran dry; with ``until`` given the clock is
          advanced to ``until`` (there is provably nothing left before it),
          except that the clock never moves backwards when ``until`` is
          already in the past.
        """
        executed = 0
        # Both lists are only ever mutated in place, so a callback that
        # schedules into either source — or runs the engine itself — is seen
        # here: which source fires next is decided afresh for every event.
        queue, stream = self._queue, self._stream
        while queue or stream:
            # Sequence numbers are unique: the comparison never reaches the callbacks.
            from_stream = bool(stream) and (not queue or stream[-1] < queue[0])
            time = stream[-1][0] if from_stream else queue[0][0]
            if until is not None and time > until:
                # Never move the clock backwards: `until` earlier than `now`
                # simply means there is nothing left to do at or before it.
                if until > self._now:
                    self._now = until
                return StopReason.UNTIL
            if max_events is not None and executed >= max_events:
                return StopReason.MAX_EVENTS
            if from_stream:
                callback = stream.pop()[2]
                self._now = time
                if not stream and self._windows is not None:
                    self._load()
            else:
                callback = heapq.heappop(queue)[2]
                self._now = time
            callback()
            self._processed_events += 1
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return StopReason.EXHAUSTED

    def step(self) -> bool:
        """Process a single event; returns False if the queue was empty."""
        if not (self._queue or self._stream):
            return False
        self.run(max_events=1)
        return True
