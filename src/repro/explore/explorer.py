"""Bounded enumeration of delivery schedules with sleep-set reduction.

The search tree: a node is the state reached by a schedule prefix, its
outgoing edges are the enabled choices there (the next program step, plus
one delivery per pending message).  The explorer walks this tree depth-first
in a canonical order — program step first, then deliveries by message
ordinal.  A node's first explored child runs right after the node and
starts from exactly its state, so it extends the node's live run by its one
new token; every later sibling replays its prefix on a fresh run.  The
executor's determinism contract (the executed prefix fully determines the
reached state) is what makes the two equal, so every node audits one new
state and only later siblings pay for their history.

**Exhaustiveness and the frontier.**  Without a budget the walk is
exhaustive: every schedule of the configuration (up to the reduction's
equivalence, below) is executed and checked.  With ``max_executions`` set,
the walk stops after that many executions; because the order is canonical,
the portion explored is a *deterministic schedule-prefix frontier* — the
same budget always explores exactly the same prefixes, and the stats record
the prefix at which the search stopped, so a larger budget strictly extends
a smaller one.

**Sleep-set reduction.**  After fully exploring choice ``c`` from a state,
``c`` is put to sleep in the siblings explored next: any execution that
takes an *independent* choice first and ``c`` later is Mazurkiewicz-
equivalent to one already explored through ``c``.  A sleeping choice wakes
up (is dropped from the sleep set) as soon as a dependent choice executes.
Two choices are independent only when they touch disjoint processes and
nothing global can couple them:

* two deliveries are independent iff their receivers differ and the
  collector exchanges no control messages (a control broadcast triggered by
  one delivery would race the other's effects);
* a program step is independent of a delivery iff the collector is
  asynchronous (Definition 8 — no control plane, no timers, so advancing
  the clock cannot couple them), the step is a send or checkpoint, and its
  process differs from the delivery's receiver;
* crash steps are dependent on everything (a recovery session is global).

Soundness, precisely: independent choices commute at the level of
per-process histories and collector/storage state, so the reduction
preserves every reachable *terminal* state and every per-process local
state.  The oracle verdicts of intermediate states are checked along every
*explored* execution; an intermediate global state unique to a pruned
interleaving of independent choices differs from an explored one only by
the order of operations that do not affect each other's processes — see
DESIGN.md ("Schedule-space exploration") for the full argument and for the
``reduction=False`` escape hatch that makes the walk literally exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.explore.executor import ScheduleExecutor, ScheduleRun
from repro.explore.program import (
    ADVANCE,
    Choice,
    ExploreConfig,
    ScheduleStats,
    StepKind,
    Violation,
)
from repro.gc.registry import collector_class


@dataclass(frozen=True)
class Counterexample:
    """A schedule that violates the oracle stack, before shrinking."""

    config: ExploreConfig
    schedule: Tuple[Choice, ...]
    violation: Violation


@dataclass
class ExplorationResult:
    """Everything one exploration produced."""

    config: ExploreConfig
    stats: ScheduleStats
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the explored space contained no violation."""
        return not self.counterexamples

    @property
    def first(self) -> Optional[Counterexample]:
        """The first counterexample found (deterministic), if any."""
        return self.counterexamples[0] if self.counterexamples else None


class _Independence:
    """Choice-independence predicate for one configuration (see module doc)."""

    def __init__(self, config: ExploreConfig) -> None:
        collector = collector_class(config.collector)
        self._config = config
        self._asynchronous = collector.asynchronous
        self._control_free = not collector.uses_control_messages

    def independent(
        self,
        a: Choice,
        b: Choice,
        affected: Dict[Choice, Optional[int]],
    ) -> bool:
        pid_a = self._affected(a, affected)
        pid_b = self._affected(b, affected)
        if pid_a is None or pid_b is None or pid_a == pid_b:
            return False
        if a[0] == ADVANCE or b[0] == ADVANCE:
            # Program step vs delivery: needs a fully asynchronous collector
            # (time advance or control traffic could couple the two).
            return self._asynchronous
        # Delivery vs delivery at the same instant.
        return self._control_free

    def _affected(
        self, choice: Choice, affected: Dict[Choice, Optional[int]]
    ) -> Optional[int]:
        if choice in affected:
            return affected[choice]
        # A choice carried over in a sleep set may not be enabled in the
        # current state's metadata; derive its process from the config.
        if choice[0] == ADVANCE:
            step = self._config.program[choice[1]]
            return None if step.kind is StepKind.CRASH else step.pid
        return None  # delivery metadata lost (cannot happen for live choices)


def explore(
    config: ExploreConfig,
    *,
    max_executions: Optional[int] = None,
    reduction: bool = True,
    max_counterexamples: int = 1,
) -> ExplorationResult:
    """Walk the schedule space of ``config`` and check every state reached.

    Stops after ``max_counterexamples`` violations (a violating prefix is
    never extended — its continuations would re-observe the same broken
    state), or when the ``max_executions`` budget runs out, whichever comes
    first; without a budget the walk is exhaustive.  A negative
    ``max_executions`` is a :class:`ValueError`.
    """
    if max_executions is not None and max_executions < 0:
        raise ValueError(
            f"max_executions must be non-negative, got {max_executions}"
        )
    executor = ScheduleExecutor(config)
    independence = _Independence(config)
    stats = ScheduleStats()
    result = ExplorationResult(config=config, stats=stats)
    # Delivery choices of pruned-sleep siblings need receiver metadata from
    # the state where they were enabled; merge every observed mapping (a
    # message ordinal's receiver never changes).
    seen_affected: Dict[Choice, Optional[int]] = {}

    def budget_left() -> bool:
        return max_executions is None or stats.executions < max_executions

    # The only run the walk keeps: the one at the node being expanded.  No
    # frame holds a run, so the stack never keeps one live runner per depth.
    live: Optional[ScheduleRun] = None

    def dfs(
        prefix: Tuple[Choice, ...], sleep: FrozenSet[Choice], first_child: bool
    ) -> bool:
        """Returns False when the walk must stop (budget or enough findings).

        ``first_child`` says the parent's run is live and at the parent's
        state, so this node extends it by the prefix's last token.
        """
        nonlocal live
        if not budget_left():
            stats.complete = False
            stats.frontier = prefix
            return False
        # Only the state the last token produced is new — every proper
        # prefix was audited by the parent executions on the way down.
        if first_child:
            assert live is not None
            live.apply(prefix[-1], audited=True)
        else:
            live = None  # free the previous run before building the next
            live = executor.start(prefix, check_from=max(len(prefix) - 1, 0))
        outcome = live.outcome()
        stats.executions += 1
        stats.deepest = max(stats.deepest, len(prefix))
        seen_affected.update(outcome.affected)
        if outcome.violation is not None:
            stats.violations += 1
            result.counterexamples.append(
                Counterexample(config, prefix[: outcome.executed], outcome.violation)
            )
            return len(result.counterexamples) < max_counterexamples
        if outcome.terminal:
            stats.schedules += 1
            return True
        explored: List[Choice] = []
        for choice in outcome.enabled:
            if choice in sleep:
                stats.sleep_pruned += 1
                continue
            if reduction:
                child_sleep = frozenset(
                    other
                    for other in sleep.union(explored)
                    if independence.independent(other, choice, seen_affected)
                )
            else:
                child_sleep = frozenset()
            if not dfs(prefix + (choice,), child_sleep, not explored):
                return False
            explored.append(choice)
        return True

    dfs((), frozenset(), False)
    return result


@dataclass
class SweepEntry:
    """One (protocol, collector) cell of an exploration sweep."""

    protocol: str
    collector: str
    result: ExplorationResult


def sweep(
    configs: Sequence[ExploreConfig],
    *,
    max_executions: Optional[int] = None,
    reduction: bool = True,
) -> List[SweepEntry]:
    """Explore several configurations (typically a protocol × collector grid)."""
    entries: List[SweepEntry] = []
    for config in configs:
        entries.append(
            SweepEntry(
                protocol=config.protocol,
                collector=config.collector,
                result=explore(
                    config,
                    max_executions=max_executions,
                    reduction=reduction,
                ),
            )
        )
    return entries
