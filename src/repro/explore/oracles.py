"""The oracle stack every explored execution is checked against.

Four layers, each an executable statement of one of the paper's claims:

* **Theorem 4 — safety**: every checkpoint the Theorem-1 characterisation
  still requires is retained (checked for *every* collector);
* **Theorem 5 — optimality**: every checkpoint Theorem 2 identifies as
  obsolete has been eliminated (checked only for collectors that
  :attr:`~repro.gc.base.GarbageCollector.claims_optimality`, and only under
  protocols that guarantee RDT executions — the theorem's hypothesis);
* **RDT preservation**: protocols whose class declares ``ensures_rdt`` must
  produce RD-trackable patterns at every explored state (Definition 4);
* **kernel cross-check**: the bitset analysis kernel's Theorem-1/2 retained
  sets and useless-checkpoint set agree with independent brute-force
  references (the literal per-checkpoint transcriptions in
  :mod:`repro.core.obsolete` and :class:`repro.ccp.BruteForceZigzagAnalysis`)
  — this mutation-tests the kernel itself along every explored interleaving.

Recovery sessions get a dedicated check
(:meth:`OracleStack.check_recovery`): the line the manager restored must be
a valid recovery line of the pre-crash pattern *and* must match the
Definition-5 brute-force line (exhaustive search over consistent global
checkpoints), which pins Lemma 1 along explored interleavings too.

Two audits state Theorems 4 and 5, with the same verdicts, and both read
the recorder's knowledge view, not a CCP (a pattern is built only for what
needs the event graph: a terminal state's RDT check and kernel cross-check,
and the pre-crash pattern of the recovery check).
:meth:`OracleStack.check_state` audits a whole state.
:meth:`OracleStack.check_events` audits only what changed since the last
clean state: obsolescence is stable.  For a non-last checkpoint ``c_i^k``
both retention tests compare frozen rows with ``last(f)`` (Theorem 1) or
``ck[i][f]`` (Theorem 2), which only grow, and no row ever exceeds them, so
a checkpoint can leave either retained set but never re-enter it; the last
checkpoint is always retained.
So Theorem 4 needs only the checkpoints eliminated since the clean state,
and Theorem 5 only the processes whose knowledge or storage changed (a
process's Theorem-2 set reads its own rows and vector alone).  The argument
holds between two states with no recovery session or membership change in
between, and the executor audits the initial state, the state after either,
and every terminal state in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint
from repro.ccp.pattern import CCP
from repro.ccp.rdt import check_rdt as run_rdt_check
from repro.ccp.zigzag import BruteForceZigzagAnalysis
from repro.core.obsolete import _is_retained_theorem1, _is_retained_theorem2
from repro.core.optimality import audit_garbage_collection
from repro.explore.program import ExploreConfig, Violation
from repro.gc.registry import collector_class
from repro.protocols.registry import protocol_class
from repro.recovery.recovery_line import (
    is_valid_recovery_line,
    recovery_line_brute_force,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import RecoveryRecord, SimulationRunner


#: Every k-th terminal state gets the kernel cross-check (see
#: :meth:`OracleStack.check_state`).  Terminal patterns of neighbouring
#: schedules differ only in event order, so a deterministic sample still
#: covers the interleaving diversity the cross-check exists for, at a
#: fraction of the sweep cost.
KERNEL_CROSS_CHECK_PERIOD = 7


@dataclass(frozen=True)
class OracleStack:
    """Which checks run, derived from the configuration.

    Safety, the sampled kernel cross-check (terminal states only — it is the
    expensive layer; the per-state audits already consume the kernel's
    answers everywhere) and the Definition-5 recovery cross-check (exponential
    in stable checkpoints — explorer-sized patterns only) always run.
    """

    check_optimality: bool = False
    check_rdt: bool = False

    @classmethod
    def for_config(cls, config: ExploreConfig) -> "OracleStack":
        """The stack for a configuration.

        Optimality is audited only when the collector claims it *and* the
        protocol guarantees the RDT hypothesis; the RDT-preservation oracle
        follows the protocol class.
        """
        protocol = protocol_class(config.protocol)
        return cls(
            check_optimality=(
                collector_class(config.collector).claims_optimality
                and protocol.ensures_rdt
            ),
            check_rdt=protocol.ensures_rdt,
        )

    # ------------------------------------------------------------------
    # Per-state checks
    # ------------------------------------------------------------------
    def check_state(
        self,
        runner: "SimulationRunner",
        step: int,
        *,
        final: bool = False,
        cross_check: bool = True,
    ) -> Optional[Violation]:
        """Audit the runner's current state; return the first violation.

        Args:
            runner: the live simulation runner whose recorded execution and
                per-process retained sets are audited in place.
            step: the schedule step this state was reached at — stamped
                into any returned :class:`Violation`.
            final: whether this is a terminal state; the RDT-preservation
                check and the kernel cross-check run only at terminal
                states (intermediate states are consistent cuts of them).
            cross_check: lets the executor sample the kernel cross-check
                over terminal states (see :data:`KERNEL_CROSS_CHECK_PERIOD`).

        Returns:
            The first :class:`Violation` found, or ``None`` when every
            enabled oracle passes.
        """
        retained = {
            node.pid: node.storage.retained_indices() for node in runner.nodes
        }
        audit = audit_garbage_collection(
            runner.trace.knowledge_view(), retained, require_optimality=self.check_optimality
        )
        violation = self._theorem_violation(
            audit.safety_violations, audit.optimality_violations, step
        )
        if violation is not None or not final:
            return violation
        if self.check_rdt:
            # Terminal states suffice: every executed prefix is a consistent
            # cut of its terminal execution (per-process prefixes, deliveries
            # only of sent messages), and RD-trackability of a CCP carries
            # over to all its consistent cuts (see repro.ccp.rdt.check_rdt).
            report = run_rdt_check(runner.trace.ccp(), collect_witnesses=False)
            if not report.is_rdt:
                pair = report.violations[0]
                return Violation(
                    kind="rdt",
                    detail=f"the pattern lost RD-trackability: {pair}",
                    step=step,
                )
        if cross_check:
            return self._cross_check_kernel(runner.trace.ccp(), step)
        return None

    def check_events(
        self,
        runner: "SimulationRunner",
        step: int,
        eliminated: Collection[CheckpointId],
        changed: Iterable[int],
    ) -> Optional[Violation]:
        """Audit a state reached from a clean one; the verdict of :meth:`check_state`.

        Args:
            runner: the live simulation runner, audited in place.
            step: the schedule step this state was reached at.
            eliminated: the checkpoints eliminated since the clean state;
                Theorem 4 tests each for Theorem-1 retention.
            changed: the processes whose knowledge changed since the clean
                state; Theorem 5 recomputes their Theorem-2 sets, and those
                of the processes in ``eliminated``.

        Sound only when no recovery session or membership change happened
        since the clean state (see the module docstring).
        """
        view = runner.trace.knowledge_view()
        unsafe = sorted({cid for cid in eliminated if view.theorem1_retains(cid)})
        hoarded: List[CheckpointId] = []
        if self.check_optimality and not unsafe:
            for pid in sorted({*changed, *(cid.pid for cid in eliminated)}):
                allowed = view.theorem2_retained_of(pid)
                for index in runner.nodes[pid].storage.retained_indices():
                    if CheckpointId(pid, index) not in allowed:
                        hoarded.append(CheckpointId(pid, index))
        return self._theorem_violation(unsafe, hoarded, step)

    def _theorem_violation(
        self,
        unsafe: Sequence[CheckpointId],
        hoarded: Sequence[CheckpointId],
        step: int,
    ) -> Optional[Violation]:
        """The Theorem-4 violation, else the Theorem-5 one, else ``None``."""
        if unsafe:
            return Violation(
                kind="safety",
                detail=(
                    "Theorem-1-required checkpoints were eliminated: "
                    + ", ".join(str(cid) for cid in unsafe)
                ),
                step=step,
            )
        if self.check_optimality and hoarded:
            return Violation(
                kind="optimality",
                detail=(
                    "Theorem-2-obsolete checkpoints are still retained: "
                    + ", ".join(str(cid) for cid in hoarded)
                ),
                step=step,
            )
        return None

    def _cross_check_kernel(self, ccp: CCP, step: int) -> Optional[Violation]:
        """Kernel answers vs the literal transcriptions and the message BFS."""
        view = ccp.analysis_provider
        all_stable = {
            cid for pid in ccp.processes for cid in ccp.stable_ids(pid)
        }
        for theorem, kernel_retained, literal in (
            (1, view.theorem1_retained(), _is_retained_theorem1),
            (2, view.theorem2_retained(), _is_retained_theorem2),
        ):
            reference = {cid for cid in all_stable if literal(ccp, cid)}
            if set(kernel_retained) != reference:
                return Violation(
                    kind="kernel-mismatch",
                    detail=(
                        f"Theorem-{theorem} retained sets disagree: kernel "
                        f"{sorted(kernel_retained)} vs literal {sorted(reference)}"
                    ),
                    step=step,
                )
        useless = ccp.zigzag.useless_checkpoints()
        brute_useless = set(BruteForceZigzagAnalysis(ccp).useless_checkpoints())
        if set(useless) != brute_useless:
            return Violation(
                kind="kernel-mismatch",
                detail=(
                    f"useless-checkpoint sets disagree: kernel "
                    f"{sorted(useless)} vs brute force "
                    f"{sorted(brute_useless)}"
                ),
                step=step,
            )
        return None

    # ------------------------------------------------------------------
    # Recovery-session checks
    # ------------------------------------------------------------------
    def check_recovery(
        self, pre_crash_ccp: CCP, record: "RecoveryRecord", step: int
    ) -> Optional[Violation]:
        """Validate one recovery session against the pre-crash pattern.

        Args:
            pre_crash_ccp: the checkpoint-and-communication pattern as of
                the crash (the pattern the recovery line must be valid in).
            record: the recovery session's outcome — faulty set and the
                restored line.
            step: the schedule step of the crash, stamped into any
                returned :class:`Violation`.

        Returns:
            A ``recovery-line`` :class:`Violation` when the restored line
            is invalid or differs from the Definition-5 brute-force line,
            else ``None``.
        """
        line = GlobalCheckpoint(tuple(record.recovery_line))
        if not is_valid_recovery_line(pre_crash_ccp, line, record.faulty):
            return Violation(
                kind="recovery-line",
                detail=(
                    f"recovery line {line.indices} for faulty {set(record.faulty)} "
                    f"is inconsistent or includes a faulty volatile state"
                ),
                step=step,
            )
        reference = recovery_line_brute_force(pre_crash_ccp, record.faulty)
        if line != reference:
            return Violation(
                kind="recovery-line",
                detail=(
                    f"Lemma-1 line {line.indices} differs from the "
                    f"Definition-5 brute-force line {reference.indices}"
                ),
                step=step,
            )
        return None


__all__ = ["KERNEL_CROSS_CHECK_PERIOD", "OracleStack"]
