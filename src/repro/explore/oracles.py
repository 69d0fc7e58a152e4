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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

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
            runner: the live simulation runner whose current CCP and
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
        ccp = runner.current_ccp()
        retained = {
            node.pid: node.storage.retained_indices() for node in runner.nodes
        }
        audit = audit_garbage_collection(
            ccp, retained, require_optimality=self.check_optimality
        )
        if not audit.is_safe:
            return Violation(
                kind="safety",
                detail=(
                    "Theorem-1-required checkpoints were eliminated: "
                    + ", ".join(str(cid) for cid in audit.safety_violations)
                ),
                step=step,
            )
        if self.check_optimality and not audit.is_optimal:
            return Violation(
                kind="optimality",
                detail=(
                    "Theorem-2-obsolete checkpoints are still retained: "
                    + ", ".join(str(cid) for cid in audit.optimality_violations)
                ),
                step=step,
            )
        if final and self.check_rdt:
            # Terminal states suffice: every executed prefix is a consistent
            # cut of its terminal execution (per-process prefixes, deliveries
            # only of sent messages), and RD-trackability of a CCP carries
            # over to all its consistent cuts (see repro.ccp.rdt.check_rdt).
            report = run_rdt_check(ccp, collect_witnesses=False)
            if not report.is_rdt:
                pair = report.violations[0]
                return Violation(
                    kind="rdt",
                    detail=f"the pattern lost RD-trackability: {pair}",
                    step=step,
                )
        if final and cross_check:
            return self._cross_check_kernel(ccp, step)
        return None

    def _cross_check_kernel(self, ccp: CCP, step: int) -> Optional[Violation]:
        """Kernel answers vs the literal transcriptions and the message BFS."""
        analyses = ccp.analyses
        all_stable = {
            cid for pid in ccp.processes for cid in ccp.stable_ids(pid)
        }
        for theorem, kernel_retained, literal in (
            (1, analyses.theorem1_retained, _is_retained_theorem1),
            (2, analyses.theorem2_retained, _is_retained_theorem2),
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
        brute_useless = set(BruteForceZigzagAnalysis(ccp).useless_checkpoints())
        if set(analyses.useless_checkpoints) != brute_useless:
            return Violation(
                kind="kernel-mismatch",
                detail=(
                    f"useless-checkpoint sets disagree: kernel "
                    f"{sorted(analyses.useless_checkpoints)} vs brute force "
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
