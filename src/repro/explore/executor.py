"""Controlled execution of one schedule over one configuration.

A :class:`ScheduleRun` builds the regular simulation stack — engine,
network, nodes, recorder, recovery manager — through
:class:`~repro.simulation.runner.SimulationRunner`, attaches a
:class:`~repro.explore.controller.PendingDeliveries` controller so no message
is delivered until the schedule says so, and then executes schedule tokens
one by one:

* ``("a", i)`` advances the engine clock to program step ``i``'s slot
  (running any control messages or collector timers due before it — those
  stay engine-driven and deterministic) and executes the step on its node;
* ``("d", m)`` delivers pending message ``m`` at the current clock.

After every token the oracle stack audits the reached state; the first
violation stops the execution.  An exception escaping the simulation (the
way an unsafe collector breaks a recovery session) is itself a violation of
kind ``execution-error``.  A run stays live after its last token, so it can
be extended by one more token instead of being rebuilt — until its outcome
is terminal (the engine was flushed) or violating.

Determinism: the executed prefix fully determines the reached state, so
re-executing a prefix on a fresh run reproduces exactly the state a live
run extended token by token reached.  The explorer relies on it when a
search node's first child extends the node's run and every later sibling
replays its prefix, and counterexample replay relies on it to reproduce a
persisted artifact byte for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.explore.controller import PendingDeliveries
from repro.explore.oracles import KERNEL_CROSS_CHECK_PERIOD, OracleStack
from repro.explore.program import (
    ADVANCE,
    DELIVER,
    Choice,
    ExecutionOutcome,
    ExploreConfig,
    StepKind,
    Violation,
)
from repro.simulation.runner import SimulationConfig, SimulationRunner
from repro.simulation.trace import TraceSink
from repro.simulation.workloads import ScriptedWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    #: Observer of the final simulation state of one execution (the
    #: fuzzer's coverage probe).  Called only on violation-free executions.
    StateProbe = Callable[[SimulationRunner], None]


class ScheduleExecutor:
    """Executes schedules of one configuration, one fresh run per call."""

    def __init__(self, config: ExploreConfig) -> None:
        """An executor for ``config``, checked by the configuration's oracle stack."""
        self._config = config
        self._oracles = OracleStack.for_config(config)
        # Terminal-state counter across this executor's executions; drives
        # the deterministic kernel-cross-check sampling.
        self._terminals_seen = 0

    @property
    def config(self) -> ExploreConfig:
        """The executed configuration."""
        return self._config

    @property
    def oracles(self) -> OracleStack:
        """The oracle stack applied to every executed state."""
        return self._oracles

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(
        self,
        schedule: Sequence[Choice] = (),
        *,
        check_from: int = 0,
        sink: Optional[TraceSink] = None,
    ) -> "ScheduleRun":
        """Run ``schedule`` from a fresh initial state and keep the run live.

        ``check_from`` skips the per-state oracle audits of the first that
        many tokens — the explorer passes the parent prefix's length, whose
        states it already audited on the way down, so each search node pays
        for exactly one new audit (re-execution of a clean prefix is
        deterministic, so re-auditing it cannot find anything new).
        ``sink`` is attached to the run's recorder before anything happens.
        """
        run = ScheduleRun(self, check_initial=check_from == 0, sink=sink)
        for token in schedule:
            if run.violation is not None:
                break
            run.apply(token, audited=run.executed >= check_from)
        return run

    def execute(
        self,
        schedule: Sequence[Choice],
        *,
        check_from: int = 0,
        trace_path: Optional[str] = None,
        trace_meta: Optional[Dict[str, object]] = None,
        state_probe: Optional["StateProbe"] = None,
    ) -> ExecutionOutcome:
        """Run ``schedule`` from a fresh initial state (see :meth:`start`).

        With ``trace_path`` the execution streams a replayable v2 traceio
        artifact (header: scripted-style with the configuration, schedule
        and ``trace_meta`` as provenance); a violating execution seals it
        with an ``aborted`` footer carrying the violation, so the artifact
        is a self-describing counterexample.

        ``state_probe`` observes the final :class:`SimulationRunner` state of
        a violation-free execution (after every token ran and, for terminal
        schedules, after the trailing engine flush) — the hook the fuzzer's
        coverage extraction uses.  It must not mutate the runner.
        """
        config = self._config
        writer = None
        if trace_path is not None:
            from repro.traceio.format import RunProvenance
            from repro.traceio.writer import TraceWriter

            meta = RunProvenance.explorer(
                config=config.describe(),
                schedule=schedule,
                extra=trace_meta,
            ).to_meta()
            writer = TraceWriter.scripted(
                trace_path,
                config.num_processes,
                seed=config.seed,
                workload="explore",
                meta=meta,
            )
        try:
            run = self.start(schedule, check_from=check_from, sink=writer)
            outcome = run.outcome()
            if state_probe is not None and outcome.violation is None:
                state_probe(run.runner)
        except BaseException:
            if writer is not None and not writer.closed:
                writer.abort("executor crashed")
            raise
        if writer is not None:
            if outcome.violation is not None:
                writer.abort(f"violation: {outcome.violation}")
            else:
                writer.seal()
        return outcome

    def _cross_check_next_terminal(self) -> bool:
        """Whether the next terminal state gets the sampled kernel cross-check."""
        cross_check = self._terminals_seen % KERNEL_CROSS_CHECK_PERIOD == 0
        self._terminals_seen += 1
        return cross_check


class ScheduleRun:
    """One live execution: the state a schedule prefix reached, extendable.

    Built by :meth:`ScheduleExecutor.start`.  :meth:`apply` executes one more
    token; :meth:`outcome` reports the state reached so far — for a state
    with nothing left to do it first flushes the engine and runs the final
    audit, after which the run is terminal.  A terminal or violating run
    refuses :meth:`apply` with :class:`RuntimeError`.
    """

    def __init__(
        self,
        executor: ScheduleExecutor,
        *,
        check_initial: bool,
        sink: Optional[TraceSink] = None,
    ) -> None:
        """A fresh run of ``executor``'s configuration at its initial state.

        ``check_initial`` audits that state; ``sink`` is attached to the
        recorder before the nodes take their initial checkpoints.
        """
        config = executor.config
        self._executor = executor
        self._config = config
        self._oracles = executor.oracles
        self.runner = SimulationRunner(
            SimulationConfig(
                num_processes=config.num_processes,
                duration=config.duration,
                workload=ScriptedWorkload([]),
                protocol=config.protocol,
                collector=config.collector,
                collector_options=config.collector_options_dict(),
                seed=config.seed,
            )
        )
        self._controller = PendingDeliveries(self.runner.network)
        if sink is not None:
            self.runner.trace.attach_sink(sink)
        for node in self.runner.nodes:
            node.start()  # the model's initial stable checkpoints s_i^0
        #: Schedule tokens executed so far.
        self.executed = 0
        #: The first violation observed, if any (the run stops there).
        self.violation: Optional[Violation] = (
            self._oracles.check_state(self.runner, 0) if check_initial else None
        )
        #: True once the outcome flushed the engine (nothing left to do).
        self.terminal = False
        self._next_step = 0
        self._outcome: Optional[ExecutionOutcome] = None

    def apply(self, token: Choice, audited: bool) -> None:
        """Execute one schedule token; audit the state it reaches if ``audited``.

        With ``audited`` False the per-state and recovery checks are skipped
        (a prefix some earlier execution already audited).
        """
        if self.violation is not None or self.terminal:
            raise RuntimeError(
                "cannot extend a run whose outcome is "
                + ("violating" if self.violation is not None else "terminal")
            )
        self._outcome = None
        kind, value = token[0], token[1]
        # An audited send whose en-route timers eliminated nothing needs no
        # audit (see below); only then is the elimination count compared.
        watch_send = (
            audited
            and kind == ADVANCE
            and self._config.program[value].kind is StepKind.SEND
        )
        eliminated_before = self._eliminated() if watch_send else 0
        violation: Optional[Violation] = None
        try:
            if kind == ADVANCE:
                if value != self._next_step:
                    raise ValueError(
                        f"schedule expects program step {self._next_step}, "
                        f"token says {value}"
                    )
                violation = self._advance(self._next_step, self.executed + 1, audited)
                self._next_step += 1
            elif kind == DELIVER:
                self._controller.deliver(value)
            else:
                raise ValueError(f"unknown schedule token kind {kind!r}")
        except Exception as exc:
            violation = Violation(
                kind="execution-error",
                detail=f"{type(exc).__name__}: {exc}",
                step=self.executed + 1,
            )
        self.executed += 1
        if violation is None and audited:
            # A send mutates neither stable storage nor the Theorem-1/2
            # characterisations (it adds no incoming causal edge and absorbs
            # nothing), so unless a timer fired and eliminated something en
            # route the verdict equals the parent state's, which was already
            # clean.
            if not (watch_send and self._eliminated() == eliminated_before):
                violation = self._oracles.check_state(self.runner, self.executed)
        self.violation = violation

    def outcome(self) -> ExecutionOutcome:
        """What the run observed: the choices enabled in the reached state.

        With no choice left the run is terminal: trailing engine work
        (collector timers, late control messages) is flushed up to the
        nominal duration and the final, full-stack audit runs, including the
        (sampled) kernel cross-check.  Computed once per reached state.
        """
        if self._outcome is None:
            self._outcome = self._reached()
        return self._outcome

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reached(self) -> ExecutionOutcome:
        config = self._config
        runner = self.runner
        enabled: Tuple[Choice, ...] = ()
        affected: Dict[Choice, Optional[int]] = {}
        if self.violation is None:
            choices: List[Choice] = []
            if self._next_step < len(config.program):
                step = config.program[self._next_step]
                choice: Choice = (ADVANCE, self._next_step)
                choices.append(choice)
                affected[choice] = None if step.kind is StepKind.CRASH else step.pid
            for message_id in self._controller.pending_message_ids():
                choice = (DELIVER, message_id)
                choices.append(choice)
                affected[choice] = self._controller.receiver(message_id)
            enabled = tuple(choices)
            if not enabled:
                self.terminal = True
                cross_check = self._executor._cross_check_next_terminal()
                try:
                    runner.engine.run(until=config.duration)
                    self.violation = self._oracles.check_state(
                        runner, self.executed, final=True, cross_check=cross_check
                    )
                except Exception as exc:
                    self.violation = Violation(
                        kind="execution-error",
                        detail=f"{type(exc).__name__}: {exc}",
                        step=self.executed,
                    )
        return ExecutionOutcome(
            enabled=enabled,
            violation=self.violation,
            executed=self.executed,
            terminal=self.terminal,
            trace_events=runner.trace.log.total_events(),
            affected=affected,
        )

    def _eliminated(self) -> int:
        return sum(node.storage.total_eliminated() for node in self.runner.nodes)

    def _advance(
        self, step_index: int, position: int, audited: bool
    ) -> Optional[Violation]:
        """Execute program step ``step_index`` at its time slot.

        ``position`` is the 1-based schedule position, used to stamp any
        recovery-oracle violation; with ``audited`` False the recovery check
        is skipped (the prefix was already audited by a previous execution).
        """
        config = self._config
        runner = self.runner
        step = config.program[step_index]
        slot = (step_index + 1) * config.step_gap
        # Run engine-scheduled work due before the slot (collector timers and
        # control-message deliveries — deterministic, not explored choices).
        runner.engine.run(until=slot)
        node = runner.nodes[step.pid]
        if step.kind is StepKind.SEND:
            assert step.target is not None
            node.send_message(step.target)
            return None
        if step.kind is StepKind.CHECKPOINT:
            node.take_checkpoint(forced=False)
            return None
        assert step.kind is StepKind.CRASH
        if not audited:
            runner.inject_crash(step.pid)
            return None
        # Recovery validity is checked against the pattern at the crash
        # instant; current_ccp() is memoised, so the manager reuses it.
        pre_crash_ccp = runner.current_ccp()
        runner.inject_crash(step.pid)
        return self._oracles.check_recovery(
            pre_crash_ccp, runner.recoveries[-1], position
        )
