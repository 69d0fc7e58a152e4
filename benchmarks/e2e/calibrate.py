"""Host-speed calibration: a fixed pure-Python loop sampled while a stage runs.

The container this benchmark runs in shares its cores with other tenants:
the same interpreter-bound work takes 25-60 % longer for 2-25 s at a time,
in CPU time as much as in wall time, so no number of repetitions inside one
10 s run averages it away (12 s windows of one unchanged workload spread
27-29 % raw).  A stage's cost is therefore counted in *host seconds*: its
CPU seconds divided by how much slower than ``REFERENCE_S`` the loop below
ran during that very stage.  :meth:`HostClock.timed` runs the loop once before,
once after and every ``INTERVAL_S`` in between, from a ``SIGALRM`` handler
(Python runs handlers in the main thread between two bytecodes, so the
samples interleave with the program without a second thread or any change
under ``src/``); the samples' own time is taken out of the stage's.

CPU seconds, not wall seconds: waiting for the disk (the SQL store's
commits) varies 3x from one repetition to the next on this host and is not
something the calibration loop can see.

The loop imports nothing from ``repro``, so no change to the program can
move it.  Its mix (heap-ordered events, per-node integer vectors, dict and
tuple churn, a JSON round trip) was picked among six candidates because its
slowdown tracks the simulator's and the analysis kernel's most closely.
"""

from __future__ import annotations

import heapq
import json
import random
import signal
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: CPU seconds one pass of the loop takes on the reference container while the
#: host is quiet (its fastest sustained phase): host seconds are CPU seconds there.
REFERENCE_S = 0.0083
#: Seconds between two samples inside a stage (about a tenth of them sampling).
INTERVAL_S = 0.1

_NODES = 16


def _event_loop(messages: int) -> int:
    rng = random.Random(3)
    vectors = [[0] * _NODES for _ in range(_NODES)]
    stores: List[Dict[int, Tuple[int, ...]]] = [{} for _ in range(_NODES)]
    heap: List[Tuple[float, int, int, List[int]]] = []
    now, delivered = 0.0, 0
    for serial in range(messages):
        now += rng.random()
        source, target = rng.randrange(_NODES), rng.randrange(_NODES)
        vectors[source][source] += 1
        heapq.heappush(heap, (now + 3 * rng.random(), serial, target, list(vectors[source])))
        while heap and heap[0][0] <= now:
            _, _, pid, piggyback = heapq.heappop(heap)
            mine, store = vectors[pid], stores[pid]
            changed = False
            for index in range(_NODES):
                if piggyback[index] > mine[index]:
                    mine[index] = piggyback[index]
                    changed = True
            if changed:
                store[delivered] = tuple(mine)
                if len(store) > 8:
                    del store[next(iter(store))]
            delivered += 1
    return delivered


def _json_round_trips(count: int) -> int:
    document: Dict[str, Any] = {f"k{i}": [i, i * 1.5, str(i)] for i in range(20)}
    size = 0
    for serial in range(count):
        document["serial"] = serial
        size += len(json.loads(json.dumps(document, sort_keys=True)))
    return size


def _dict_counts(count: int) -> int:
    counts: Dict[int, int] = {}
    for serial in range(count):
        key = (serial * 7919) & 1023
        counts[key] = counts.get(key, 0) + serial
    return len(counts)


def _loop() -> None:
    _event_loop(1100)
    _json_round_trips(135)
    _dict_counts(20000)


class Timing(NamedTuple):
    """What one timed stage cost, net of the samples taken inside it."""

    #: Wall-clock seconds (kept for reference; includes waiting for the disk).
    wall_s: float
    #: CPU seconds of this process.
    cpu_s: float
    #: ``cpu_s`` over the host's slowdown during the stage: what rates are built from.
    host_s: float


class HostClock:
    """This process's clocks with the sampling taken out, and the sampler itself."""

    def __init__(self) -> None:
        self._sampled_wall = 0.0
        self._sampled_cpu = 0.0
        self._samples = 0

    def wall(self) -> float:
        """``time.perf_counter()`` that stands still while a sample runs."""
        return time.perf_counter() - self._sampled_wall

    def cpu(self) -> float:
        """``time.process_time()`` that stands still while a sample runs."""
        return time.process_time() - self._sampled_cpu

    def _sample(self, *_signal: Any) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        _loop()
        self._sampled_cpu += time.process_time() - cpu
        self._sampled_wall += time.perf_counter() - wall
        self._samples += 1

    def timed(self, call: Callable[[], Any]) -> Tuple[Timing, Any]:
        """``call()`` and its cost, the host's speed sampled while it runs."""
        samples, sampled_cpu = self._samples, self._sampled_cpu
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart, not fail, a system call the alarm interrupts (SQLite's writes).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            wall, cpu = self.wall(), self.cpu()
            value = call()
            wall, cpu = self.wall() - wall, self.cpu() - cpu
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        slowdown = (self._sampled_cpu - sampled_cpu) / (self._samples - samples) / REFERENCE_S
        return Timing(wall, cpu, cpu / slowdown), value


def untimed(call: Callable[[], Any]) -> Tuple[Timing, Any]:
    """A timer that measures nothing, for a warm-up inside a timed set-up."""
    return Timing(0.0, 0.0, 0.0), call()
