"""The coverage-guided fuzz loop.

Where the explorer *enumerates* the schedule space (complete, but
exponential), the fuzzer *samples* it: start from a handful of seed
schedules, mutate whatever earned its place in the corpus, execute each
candidate under the full PR-5 oracle stack, and keep a candidate exactly
when it exhibits a checkpoint-pattern feature
(:func:`~repro.fuzz.coverage.state_features`) no earlier execution did.
Violations take the explorer's own exit path — greedy shrinking and a
replayable traceio artifact.

Everything is deterministic: one ``random.Random(seed)`` stream drives every
draw, executions replay bit-identically (the executor guarantee), and the
corpus is content-addressed — so the same target, seed and budget produce
the same corpus, the same coverage map and the same findings, which the
determinism tests pin.  The same guarantee lets a mutant skip the audits
of the prefix it shares with a parent this run executed clean: it audits
only the states it reaches beyond it.

Seeding is a cold-start bridge, not an oracle: the *eager* schedule
(deliver right after each send), the *lazy* schedule (deliver everything at
the end), and the deterministic frontier prefix of a tiny budgeted
:func:`~repro.explore.explore` walk — so the fuzzer starts from the exact
point exhaustive exploration gave up, the hand-off the roadmap asked for.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.explore.canaries import CANARY_NAMES, canaries_registered
from repro.explore.executor import ScheduleExecutor
from repro.explore.explorer import explore
from repro.explore.oracles import OracleStack
from repro.explore.program import (
    ADVANCE,
    DELIVER,
    Choice,
    ExploreConfig,
    StepKind,
    Violation,
    checkpoint,
    gossip_program,
    ring_program,
    send,
    star_program,
)
from repro.explore.shrink import ShrunkCounterexample, persist_counterexample, shrink
from repro.fuzz.corpus import Corpus, CorpusEntry, entry_id
from repro.fuzz.coverage import CoverageMap, state_features
from repro.fuzz.mutate import MUTATORS, complete, splice


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzTarget:
    """A named, self-contained thing to fuzz.

    Wraps an :class:`~repro.explore.ExploreConfig` plus the run-scoped
    environment it needs (today: whether the canary collectors must be
    registered for the configuration to resolve).
    """

    name: str
    config: ExploreConfig
    #: Register the test-only canary collectors for the run's duration.
    needs_canaries: bool = False


def _ms_window_program() -> Tuple[Any, ...]:
    """The Manivannan–Singhal unsafety driver (same shape the tests use)."""
    return (
        send(1, 0),
        checkpoint(0),
        send(0, 1),
        send(1, 0),
        checkpoint(0),
        send(0, 1),
        checkpoint(1),
        checkpoint(0),
    )


def builtin_targets() -> Dict[str, FuzzTarget]:
    """The named fuzz targets the CLI accepts.

    Returns:
        Mapping of target name to :class:`FuzzTarget`:

        * ``ring`` — the canonical 2-process, 4-message ring under RDT-LGC
          (expected clean; pure coverage exercise);
        * ``ring-crash`` — the same ring with an injected crash of process 0
          (recovery-line coverage; expected clean);
        * ``ring3-crash`` — 3 processes, 9 messages, a crash: the benchmark
          target, large enough that a budgeted run cannot saturate it;
        * ``star-crash`` — the client-server star topology (hub process 0,
          two clients, a hub crash): the skewed client-server workload
          family's explorable skeleton (expected clean);
        * ``gossip`` — 3-process gossip fan-out rounds (expected clean);
        * ``canary-unsafe`` / ``canary-hoarder`` — the PR-5 conformance
          canaries (a violation *must* be found);
        * ``ms-window`` — Manivannan–Singhal quasi-synchronous collector
          outside its honoured timing window (a safety violation exists).
    """
    targets = {
        "ring": FuzzTarget(
            name="ring",
            config=ExploreConfig(num_processes=2, program=ring_program(2, 4)),
        ),
        "ring-crash": FuzzTarget(
            name="ring-crash",
            config=ExploreConfig(
                num_processes=2,
                program=ring_program(2, 4, crash_pid=0),
            ),
        ),
        "ring3-crash": FuzzTarget(
            name="ring3-crash",
            config=ExploreConfig(
                num_processes=3,
                program=ring_program(3, 9, crash_pid=0),
            ),
        ),
        "star-crash": FuzzTarget(
            name="star-crash",
            config=ExploreConfig(
                num_processes=3,
                program=star_program(3, 4, crash_pid=0),
            ),
        ),
        "gossip": FuzzTarget(
            name="gossip",
            config=ExploreConfig(
                num_processes=3,
                program=gossip_program(3, 3, fanout=2),
            ),
        ),
        "ms-window": FuzzTarget(
            name="ms-window",
            config=ExploreConfig(
                num_processes=2,
                program=_ms_window_program(),
                collector="manivannan-singhal",
                collector_options=(
                    ("checkpoint_period", 2.0),
                    ("max_message_delay", 0.5),
                    ("slack", 0.5),
                ),
            ),
        ),
    }
    # ExploreConfig validates collector names at construction time, so the
    # canary configurations must be built while the canaries are registered;
    # the fuzz run itself re-registers them (needs_canaries).
    with canaries_registered():
        for name in CANARY_NAMES:
            targets[name] = FuzzTarget(
                name=name,
                config=ExploreConfig(
                    num_processes=2, program=ring_program(2, 4), collector=name
                ),
                needs_canaries=True,
            )
    return targets


def resolve_target(target: Union[str, FuzzTarget, ExploreConfig]) -> FuzzTarget:
    """Normalise any accepted target spelling into a :class:`FuzzTarget`.

    Args:
        target: a built-in target name, a ready :class:`FuzzTarget`, or a
            bare :class:`~repro.explore.ExploreConfig`.

    Returns:
        The resolved target.

    Raises:
        ValueError: for an unknown target name.
    """
    if isinstance(target, FuzzTarget):
        return target
    if isinstance(target, ExploreConfig):
        needs_canaries = target.collector in CANARY_NAMES
        return FuzzTarget(
            name="custom", config=target, needs_canaries=needs_canaries
        )
    targets = builtin_targets()
    if target not in targets:
        accepted = ", ".join(sorted(targets))
        raise ValueError(f"unknown fuzz target {target!r} (accepted: {accepted})")
    return targets[target]


@dataclass(frozen=True)
class FuzzSpec:
    """A whole fuzz campaign as data (the :mod:`repro.api` spec kind).

    Bundles the target with the run knobs so a JSON document can describe
    the entire campaign; :func:`repro.api.run` unpacks it into :func:`fuzz`.
    """

    target: FuzzTarget
    budget: int = 300
    seed: int = 0
    #: Corpus directory (``None`` runs in-memory).
    corpus: Optional[str] = None
    guided: bool = True
    minimize: bool = True


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def eager_schedule(config: ExploreConfig) -> Tuple[Choice, ...]:
    """The deliver-immediately schedule: each message lands right after its send.

    Args:
        config: the target configuration.

    Returns:
        A complete, well-formed schedule.
    """
    tokens: List[Choice] = []
    ordinal = 0
    for index, step in enumerate(config.program):
        tokens.append((ADVANCE, index))
        if step.kind is StepKind.SEND:
            tokens.append((DELIVER, ordinal))
            ordinal += 1
    return tuple(tokens)


def lazy_schedule(config: ExploreConfig) -> Tuple[Choice, ...]:
    """The deliver-at-the-end schedule: every message stays in flight until
    the whole program ran, then lands in send order.

    Args:
        config: the target configuration.

    Returns:
        A complete, well-formed schedule.
    """
    tokens: List[Choice] = [
        (ADVANCE, index) for index in range(len(config.program))
    ]
    tokens.extend((DELIVER, m) for m in range(config.message_count))
    return tuple(tokens)


@dataclass(frozen=True)
class SeedSet:
    """The cold-start seeds plus what producing them cost."""

    #: Deduplicated ``(origin, schedule)`` pairs.
    seeds: Tuple[Tuple[str, Tuple[Choice, ...]], ...]
    #: Executions the frontier-seeding explorer walk actually spent.
    explorer_executions: int = 0


def seed_schedules(
    config: ExploreConfig,
    *,
    oracles: Optional[OracleStack] = None,
    explorer_executions: int = 48,
) -> SeedSet:
    """The cold-start seed set: two structural extremes + the explorer frontier.

    Args:
        config: the target configuration.
        oracles: optional oracle-stack override for the seeding walk.
        explorer_executions: budget for the tiny :func:`explore` walk whose
            deterministic frontier prefix becomes a seed (0 disables it).

    Returns:
        The :class:`SeedSet`; seed origins are ``seed-eager``, ``seed-lazy``,
        ``seed-frontier`` and ``seed-explorer`` (a violating prefix the
        seeding walk surfaced, handed to the fuzz loop so it takes the
        normal shrink/persist path).
    """
    seeds: List[Tuple[str, Tuple[Choice, ...]]] = [
        ("seed-eager", eager_schedule(config)),
        ("seed-lazy", lazy_schedule(config)),
    ]
    spent = 0
    if explorer_executions > 0:
        walk = explore(
            config,
            oracles=oracles,
            max_executions=explorer_executions,
            max_counterexamples=1,
        )
        spent = walk.stats.executions
        if walk.stats.frontier is not None:
            seeds.append(
                ("seed-frontier", complete(config, walk.stats.frontier))
            )
        for counterexample in walk.counterexamples:
            seeds.append(
                ("seed-explorer", complete(config, counterexample.schedule))
            )
    unique: List[Tuple[str, Tuple[Choice, ...]]] = []
    seen = set()
    for origin, schedule in seeds:
        if schedule not in seen:
            seen.add(schedule)
            unique.append((origin, schedule))
    return SeedSet(seeds=tuple(unique), explorer_executions=spent)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzFinding:
    """One distinct violation the fuzzer found (deduplicated by kind)."""

    violation: Violation
    #: The schedule that first exhibited it (pre-shrink).
    schedule: Tuple[Choice, ...]
    #: The 1-minimal repro, when minimisation ran.
    shrunk: Optional[ShrunkCounterexample] = None
    #: Persisted counterexample artifact, when the corpus is disk-backed.
    artifact: Optional[str] = None

    def as_document(self) -> Dict[str, Any]:
        """JSON-encodable form (CLI report).

        Returns:
            The finding as a plain dict.
        """
        document: Dict[str, Any] = {
            "kind": self.violation.kind,
            "detail": self.violation.detail,
            "step": self.violation.step,
            "schedule": [list(token) for token in self.schedule],
        }
        if self.shrunk is not None:
            document["shrunk_schedule"] = [
                list(token) for token in self.shrunk.schedule
            ]
            document["shrink_attempts"] = self.shrunk.attempts
        if self.artifact is not None:
            document["artifact"] = self.artifact
        return document


@dataclass
class FuzzStats:
    """Bookkeeping of one fuzz run (reported by CLI and benchmark)."""

    executions: int = 0
    #: Executions the explorer-frontier seeding walk spent (not mutations).
    seed_executions: int = 0
    violations: int = 0
    #: Candidates rejected as semantically invalid, not buggy: they tried to
    #: deliver a message a recovery session had already discarded (statically
    #: well-formed, but the custody model forbids it).
    invalid: int = 0
    corpus_added: int = 0
    #: Candidates skipped because their content id was already executed.
    duplicates: int = 0
    #: Mutation draws that produced no applicable candidate.
    mutation_misses: int = 0
    features: int = 0
    dimension_counts: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-encodable form.

        Returns:
            The stats as a plain dict.
        """
        return {
            "executions": self.executions,
            "seed_executions": self.seed_executions,
            "violations": self.violations,
            "invalid": self.invalid,
            "corpus_added": self.corpus_added,
            "duplicates": self.duplicates,
            "mutation_misses": self.mutation_misses,
            "features": self.features,
            "dimension_counts": dict(self.dimension_counts),
        }


@dataclass
class FuzzResult:
    """Everything one fuzz run produced."""

    target: FuzzTarget
    corpus: Corpus
    stats: FuzzStats
    findings: List[FuzzFinding] = field(default_factory=list)
    #: The coverage map novelty was judged against (the corpus's in guided
    #: mode, a run-local one in random mode).
    coverage: CoverageMap = field(default_factory=CoverageMap)

    @property
    def ok(self) -> bool:
        """True when the run found no violation."""
        return not self.findings

    def as_document(self) -> Dict[str, Any]:
        """JSON-encodable run report (CLI ``--report`` output).

        Returns:
            Target, stats, corpus size and findings as a plain dict.
        """
        return {
            "target": self.target.name,
            "config": self.target.config.describe(),
            "stats": self.stats.as_dict(),
            "corpus_size": len(self.corpus),
            "corpus_root": self.corpus.root,
            "findings": [finding.as_document() for finding in self.findings],
        }


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
#: Draws attempted per mutation round before counting a miss.
_DRAWS_PER_ROUND = 8


class _PoolEntry(NamedTuple):
    """One mutation-pool schedule, its content id, and whether this run
    executed it clean (its mutants may then skip their shared prefix)."""

    schedule: Tuple[Choice, ...]
    entry_id: str
    audited: bool


class _Candidate(NamedTuple):
    """One drawn, not-yet-executed candidate."""

    op: str
    schedule: Tuple[Choice, ...]
    entry_id: str
    #: The pool entry it was mutated from (``None`` for seeds).
    parent_id: Optional[str]
    #: Tokens whose states its parent already audited clean in this run.
    check_from: int


#: A mutation round whose draws all failed.
_MISS = _Candidate("miss", (), "", None, 0)


def _common_prefix(a: Sequence[Choice], b: Sequence[Choice]) -> int:
    """Length of the longest common token prefix of two schedules."""
    length = 0
    for left, right in zip(a, b):
        if left != right:
            break
        length += 1
    return length


def fuzz(
    target: Union[str, FuzzTarget, ExploreConfig],
    *,
    budget: int = 300,
    seed: int = 0,
    corpus: Union[Corpus, str, None] = None,
    guided: bool = True,
    minimize: bool = True,
    oracles: Optional[OracleStack] = None,
    explorer_seed_executions: int = 48,
    stop_after_findings: Optional[int] = None,
) -> FuzzResult:
    """Run the coverage-guided fuzz loop against one target.

    Args:
        target: a built-in target name (see :func:`builtin_targets`), a
            :class:`FuzzTarget`, or a bare configuration.
        budget: candidate executions to spend (seeds included, the seeding
            explorer walk excluded — it is bounded separately).
        seed: the run's random seed; same target + seed + budget means the
            same corpus, coverage and findings.
        corpus: a corpus directory path (disk-backed, warm-start capable),
            a ready :class:`Corpus`, or ``None`` for in-memory.
        guided: with ``True`` (the fuzzer) coverage-novel candidates join
            the mutation pool and the corpus; with ``False`` the pool stays
            fixed at the seeds — stacked random mutation with no execution
            feedback, the baseline that isolates exactly what the coverage
            signal buys (the benchmark's comparison).
        minimize: shrink each distinct violation to a 1-minimal repro.
        oracles: optional oracle-stack override.
        explorer_seed_executions: budget of the frontier-seeding walk
            (0 disables explorer seeding).
        stop_after_findings: stop early after this many *distinct* violation
            kinds (``None`` runs the full budget).

    Returns:
        The :class:`FuzzResult`; disk-backed corpora are saved (index +
        artifacts) before returning.

    Raises:
        ValueError: for an unknown target name, a negative budget, or a
            warm corpus written for another configuration (refused before
            anything executes or is written).
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    resolved = resolve_target(target)
    config = resolved.config
    rng = random.Random(seed)
    stats = FuzzStats()

    with contextlib.ExitStack() as stack:
        if resolved.needs_canaries:
            stack.enter_context(canaries_registered())
        if isinstance(corpus, str):
            corpus = Corpus.load(corpus)
        elif corpus is None:
            corpus = Corpus()
        _refuse_foreign_corpus(corpus, config)
        oracle_stack = oracles if oracles is not None else OracleStack.for_config(config)
        executor = ScheduleExecutor(config, oracle_stack)
        coverage = corpus.coverage if guided else CoverageMap()
        result = FuzzResult(
            target=resolved, corpus=corpus, stats=stats, coverage=coverage
        )

        # Mutation pool: warm corpus entries first, then whatever this run
        # admits (random mode keeps the seeds instead), each beside its id.
        # ``audited`` marks a schedule this run executed clean: every state
        # it reaches passed the audits here, so a mutant re-executing its
        # prefix reaches those same states (the executor's determinism
        # contract) and needs no second audit of them.  A warm entry was
        # audited by another process, possibly under other oracles, so its
        # mutants audit from the start.
        pool: List[_PoolEntry] = [
            _PoolEntry(entry.schedule, entry.entry_id, audited=False)
            for entry in corpus.ordered()
        ]
        executed_ids = {identifier for identifier in corpus.entries}
        seen_kinds: Dict[str, int] = {}

        seed_set = seed_schedules(
            config, oracles=oracle_stack, explorer_executions=explorer_seed_executions
        )
        stats.seed_executions = seed_set.explorer_executions
        pending = list(seed_set.seeds)

        def next_candidate() -> Optional[_Candidate]:
            """The next not-yet-executed candidate, a miss, or ``None``."""
            while pending:
                origin, schedule = pending.pop(0)
                identifier = entry_id(config, schedule)
                if identifier in executed_ids:
                    stats.duplicates += 1
                    continue
                return _Candidate(origin, schedule, identifier, None, 0)
            if not pool:
                return None
            for _ in range(_DRAWS_PER_ROUND):
                parent = pool[rng.randrange(len(pool))]
                schedule = parent.schedule
                if len(pool) >= 2 and rng.random() < 0.2:
                    other = rng.randrange(len(pool))
                    candidate = splice(rng, config, schedule, pool[other].schedule)
                    op = "splice"
                else:
                    # Stack 1-3 operators (AFL's havoc idea): single-step
                    # mutants of a small pool exhaust quickly, stacked ones
                    # reach schedules no single operator can.
                    stacked = 1 + rng.randrange(3)
                    candidate = schedule
                    ops: List[str] = []
                    for _ in range(stacked):
                        op, mutator = MUTATORS[rng.randrange(len(MUTATORS))]
                        mutated = mutator(rng, config, candidate)
                        if mutated is None:
                            continue
                        candidate = mutated
                        ops.append(op)
                    if not ops:
                        continue
                    op = "+".join(ops)
                    if candidate == schedule:
                        candidate = None
                if candidate is None:
                    continue
                identifier = entry_id(config, candidate)
                if identifier in executed_ids:
                    stats.duplicates += 1
                    continue
                check_from = (
                    _common_prefix(schedule, candidate) if parent.audited else 0
                )
                return _Candidate(op, candidate, identifier, parent.entry_id, check_from)
            stats.mutation_misses += 1
            return _MISS

        consecutive_misses = 0
        while stats.executions < budget:
            drawn = next_candidate()
            if drawn is None:
                break  # nothing left to mutate (empty pool, no seeds)
            if drawn is _MISS:
                consecutive_misses += 1
                if consecutive_misses >= 50:
                    break  # mutation space saturated for this pool
                continue
            consecutive_misses = 0
            op, schedule, identifier, parent_id, check_from = drawn
            executed_ids.add(identifier)

            captured: List[Any] = []
            outcome = executor.execute(
                schedule, check_from=check_from, state_probe=captured.append
            )
            stats.executions += 1

            if outcome.violation is not None:
                if _is_invalid_candidate(outcome.violation):
                    # Statically well-formed, semantically impossible: the
                    # schedule delivers a message a recovery session already
                    # discarded.  Not a bug — reject the input.
                    stats.invalid += 1
                    continue
                stats.violations += 1
                kind = outcome.violation.kind
                seen_kinds[kind] = seen_kinds.get(kind, 0) + 1
                if seen_kinds[kind] == 1:
                    result.findings.append(
                        _handle_finding(
                            config,
                            schedule[: outcome.executed] or schedule,
                            outcome.violation,
                            corpus,
                            oracle_stack,
                            minimize,
                        )
                    )
                    if (
                        stop_after_findings is not None
                        and len(result.findings) >= stop_after_findings
                    ):
                        break
                continue

            features = state_features(captured[0])
            new = coverage.observe(features)
            if not guided:
                # Baseline mode: only the seeds are mutation material.
                if parent_id is None:
                    pool.append(_PoolEntry(schedule, identifier, audited=True))
                continue
            if new:
                corpus.add(
                    CorpusEntry(
                        entry_id=identifier,
                        config=config,
                        schedule=schedule,
                        features=tuple(sorted(new, key=repr)),
                        parent=parent_id,
                        op=op,
                    ),
                    oracles=oracle_stack,
                )
                pool.append(_PoolEntry(schedule, identifier, audited=True))
                stats.corpus_added += 1

        stats.features = len(coverage)
        stats.dimension_counts = coverage.dimension_counts()
        corpus.save()
    return result


def _refuse_foreign_corpus(corpus: Corpus, config: ExploreConfig) -> None:
    """Refuse a warm corpus whose entries another configuration wrote.

    Its entries would join the mutation pool and its coverage map would
    judge novelty for a configuration it never described, and this run's
    entries would land in the same index.
    """
    expected = config.describe()
    for entry in corpus.ordered():
        found = entry.config.describe()
        if found != expected:
            where = corpus.root if corpus.root is not None else "in memory"
            raise ValueError(
                f"corpus ({where}) was written for configuration {found}, "
                f"not for the fuzzed configuration {expected}; use one "
                f"corpus directory per target"
            )


def _is_invalid_candidate(violation: Violation) -> bool:
    """True when a violation marks an impossible input, not a bug.

    Delivering a message a recovery session already discarded raises the
    controller's not-pending :class:`ValueError`; the executor wraps it as
    an ``execution-error`` violation.  For the explorer that cannot happen
    (it only ever picks enabled choices); for the fuzzer it means the
    mutation crossed a crash boundary and the candidate must be rejected.

    Args:
        violation: the violation an execution produced.

    Returns:
        Whether the violation is the custody-model rejection.
    """
    return (
        violation.kind == "execution-error"
        and "is not pending" in violation.detail
    )


def _handle_finding(
    config: ExploreConfig,
    schedule: Sequence[Choice],
    violation: Violation,
    corpus: Corpus,
    oracles: OracleStack,
    minimize: bool,
) -> FuzzFinding:
    """Shrink a fresh violation and persist it under the corpus, if possible."""
    shrunk: Optional[ShrunkCounterexample] = None
    artifact: Optional[str] = None
    if minimize:
        shrunk = shrink(config, schedule, violation, oracles=oracles)
        destination = corpus.counterexamples_dir()
        if destination is not None:
            os.makedirs(destination, exist_ok=True)
            artifact = os.path.join(
                destination, f"{violation.kind}.trace.jsonl"
            )
            persist_counterexample(shrunk, artifact, oracles=oracles)
    return FuzzFinding(
        violation=violation,
        schedule=tuple(schedule),
        shrunk=shrunk,
        artifact=artifact,
    )


__all__ = [
    "FuzzFinding",
    "FuzzResult",
    "FuzzStats",
    "FuzzSpec",
    "FuzzTarget",
    "SeedSet",
    "builtin_targets",
    "eager_schedule",
    "fuzz",
    "lazy_schedule",
    "resolve_target",
    "seed_schedules",
]
