"""The paper's artifacts as tables of deterministic counts.

Every section of ``EXPERIMENTS.md`` — a figure, a lemma, a theorem, a claim
or one of the two evaluations the paper defers — shows one table computed
here.  Each artifact is a cached function returning its rows (dictionaries
keyed by column heading), so its runs happen once per test session however
many tests read it: the claim tests in this directory assert on the rows, and
``test_experiments_md.py`` renders every table and compares it byte for byte
with the block committed in ``EXPERIMENTS.md``.  Every number is a count
drawn from a hand-built pattern or a seeded run; nothing is timed.

Processes print in the paper's numbering (``p1`` is pid 0), stable
checkpoints as ``s<process>^<index>`` and a volatile one as ``v<process>``.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.consistency import GlobalCheckpoint, is_consistent_global_checkpoint
from repro.ccp.pattern import CCP
from repro.ccp.rdt import check_rdt
from repro.ccp.zigzag import ZigzagAnalysis
from repro.core.obsolete import (
    needless_stable_checkpoints,
    obsolete_stable_checkpoints_corollary1,
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.recovery.recovery_line import (
    recovery_line,
    recovery_line_brute_force,
    rolled_back_checkpoints,
)
from repro.scenarios.experiments import STUDY_COLLECTORS, run_random_simulation, run_worst_case
from repro.scenarios.figures import (
    FIGURE4_ANNOTATIONS,
    HandDrivenTransport,
    drive_figure4,
    figure1_ccp,
    figure2_ccp,
    figure3_ccp,
    figure4_ccp,
)
from repro.simulation.node import build_node
from repro.simulation.runner import SimulationConfig, SimulationResult, SimulationRunner
from repro.simulation.trace import TraceRecorder
from repro.simulation.workloads import (
    ClientServerWorkload,
    PipelineWorkload,
    RingWorkload,
    UniformRandomWorkload,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.check_regression import _LineCounter  # noqa: E402

Row = Dict[str, Any]
Rows = Tuple[Row, ...]

#: Artifact name → its cached rows, in ``EXPERIMENTS.md`` order.
ARTIFACTS: Dict[str, Callable[[], Rows]] = {}


def _artifact(name: str) -> Callable[[Callable[[], Iterable[Row]]], Callable[[], Rows]]:
    def register(compute: Callable[[], Iterable[Row]]) -> Callable[[], Rows]:
        ARTIFACTS[name] = functools.cache(lambda: tuple(compute()))
        return ARTIFACTS[name]

    return register


def render(rows: Rows) -> str:
    """The rows as the Markdown table committed in ``EXPERIMENTS.md``."""
    lines = [_markdown_row(rows[0]), "|" + "---|" * len(rows[0])]
    lines.extend(_markdown_row(row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def _markdown_row(cells: Iterable[Any]) -> str:
    return "| " + " | ".join(_cell(cell) for cell in cells) + " |"


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.1f}"
    if isinstance(value, list):
        return "; ".join(_cell(item) for item in value)
    return str(value)


def _facts(*facts: Tuple[str, Any, Any]) -> Iterable[Row]:
    return ({"fact": fact, "paper": paper, "reproduced": got} for fact, paper, got in facts)


# ----------------------------------------------------------------------
# Labels in the paper's numbering
# ----------------------------------------------------------------------
def _label(cid: CheckpointId) -> str:
    return f"s{cid.pid + 1}^{cid.index}"


def _labels(cids: Iterable[CheckpointId]) -> str:
    return ", ".join(_label(cid) for cid in sorted(cids)) or "none"


def _line(ccp: CCP, line: GlobalCheckpoint) -> str:
    return ", ".join(
        f"v{pid + 1}" if index == ccp.volatile_index(pid) else _label(CheckpointId(pid, index))
        for pid, index in enumerate(line.indices)
    )


def _stable_rolled_back(ccp: CCP, line: GlobalCheckpoint) -> int:
    return sum(ccp.is_stable(cid) for cid in rolled_back_checkpoints(ccp, line))


# ----------------------------------------------------------------------
# Runs shared by several artifacts (and tests)
# ----------------------------------------------------------------------
@functools.cache
def small_run(seed: int, protocol: str = "fdas", crashes: int = 0) -> SimulationResult:
    """The 3-process RDT-LGC run the randomized theorem tests audit."""
    return run_random_simulation(
        num_processes=3, duration=60.0, seed=seed, protocol=protocol, collector="rdt-lgc",
        crashes=crashes, audit="full", mean_message_gap=3.0, mean_checkpoint_gap=9.0,
    )


@functools.cache
def worst_case(num_processes: int, collector: str = "rdt-lgc") -> SimulationResult:
    """Figure 5's schedule; Wang's coordinator runs a round every 4 time units."""
    options = {"period": 4.0} if collector == "wang-coordinated" else {}
    return run_worst_case(num_processes, collector=collector, collector_options=options)


@functools.cache
def fdas_ring_ccp() -> CCP:
    """Figure 2's ping-pong traffic between two processes, under FDAS."""
    workload = RingWorkload(period=3.0, mean_checkpoint_gap=7.0)
    config = SimulationConfig(
        num_processes=2, duration=80.0, workload=workload, protocol="fdas",
        collector="none", seed=11, keep_final_ccp=True,
    )
    ccp = SimulationRunner(config).run().final_ccp
    assert ccp is not None
    return ccp


def _executions() -> List[Tuple[str, CCP]]:
    """The patterns the obsolescence artifacts characterise."""
    runs = [(f"random, seed {seed}", small_run(seed).final_ccp) for seed in (0, 5, 9)]
    return [("Figure 3", figure3_ccp()), ("Figure 4", figure4_ccp()), *runs]


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
@_artifact("figure-1")
def figure1() -> Iterable[Row]:
    ccp = figure1_ccp()
    analysis = ZigzagAnalysis(ccp)
    m1, m2, m4, m5 = 0, 1, 2, 3
    s1_1, s3_2 = CheckpointId(0, 1), CheckpointId(2, 2)
    return _facts(
        ("[m1, m2] is a causal path", True, analysis.is_causal_sequence([m1, m2])),
        ("[m1, m4] is a causal path", True, analysis.is_causal_sequence([m1, m4])),
        ("[m5, m4] is a zigzag path from s1^1 to s3^2", True,
         analysis.is_zigzag_sequence([m5, m4], s1_1, s3_2)),
        ("[m5, m4] is a causal path", False, analysis.is_causal_sequence([m5, m4])),
        ("{v1, s2^1, s3^1} is consistent", True, is_consistent_global_checkpoint(
            ccp, GlobalCheckpoint((ccp.volatile_index(0), 1, 1)))),
        ("{s1^0, s2^1, s3^1} is consistent", False,
         is_consistent_global_checkpoint(ccp, GlobalCheckpoint((0, 1, 1)))),
        ("the pattern is RD-trackable", True, check_rdt(ccp).is_rdt),
        ("without m3 it is RD-trackable", False,
         check_rdt(figure1_ccp(include_m3=False)).is_rdt),
        ("useless checkpoints", 0, len(analysis.useless_checkpoints())),
    )


@_artifact("figure-2")
def figure2() -> Iterable[Row]:
    for execution, ccp in (("Figure 2, uncoordinated", figure2_ccp()),
                           ("FDAS, same traffic", fdas_ring_ccp())):
        line = recovery_line_brute_force(ccp, [0])
        yield {
            "execution": execution,
            "stable": ccp.total_stable_checkpoints(),
            "useless": len(ZigzagAnalysis(ccp).useless_checkpoints()),
            "recovery line, F = {p1}": _line(ccp, line),
            "rolled back": _stable_rolled_back(ccp, line),
        }


@_artifact("figure-3")
def figure3() -> Iterable[Row]:
    ccp = figure3_ccp()
    line = recovery_line(ccp, [1, 2])
    obsolete = obsolete_stable_checkpoints_theorem1(ccp)
    retained = {pid: [c.index for c in ccp.stable_ids(pid) if c not in obsolete]
                for pid in ccp.processes}
    holes = {c for c in obsolete
             if retained[c.pid] and min(retained[c.pid]) < c.index < max(retained[c.pid])}
    return _facts(
        ("recovery line, F = {p2, p3}", "drawn only", _line(ccp, line)),
        ("the line excludes s3^last", True, line.indices[2] < ccp.last_stable(2)),
        ("obsolete stable checkpoints (Theorem 1)", 5, len(obsolete)),
        ("obsolete between two retained ones (holes)", "at least 1", _labels(holes)),
    )


@_artifact("figure-4")
def figure4() -> Iterable[Row]:
    run = drive_figure4()
    observed = {label: (dv, uc) for label, dv, uc in run.steps}
    matching = sum(observed[label] == state for label, state in FIGURE4_ANNOTATIONS.items())
    eliminated = {CheckpointId(node.pid, index)
                  for node in run.nodes for index in node.collector.collected_indices()}
    ccp = figure4_ccp()
    return _facts(
        ("annotated (DV, UC) states", len(FIGURE4_ANNOTATIONS), matching),
        ("eliminated online", "s2^2, s3^1, s3^2", _labels(eliminated)),
        ("obsolete (Theorem 1) but retained", "s2^1",
         _labels(obsolete_stable_checkpoints_theorem1(ccp) - eliminated)),
        ("eliminated = Theorem-2 set", True,
         eliminated == obsolete_stable_checkpoints_theorem2(ccp)),
    )


@_artifact("figure-5")
def figure5() -> Iterable[Row]:
    for n in (2, 4, 8):
        result = worst_case(n)
        yield {
            "n": n,
            "at rest": max(result.retained_final),
            "transient": result.max_retained_any_process,
            "global at rest": result.total_retained_final,
            "global transient": sum(result.max_retained_per_process),
            "forced": result.forced_checkpoints,
        }


# ----------------------------------------------------------------------
# Lemma 1 and the theorems
# ----------------------------------------------------------------------
@_artifact("lemma-1")
def lemma1() -> Iterable[Row]:
    cases = [("Figure 1", figure1_ccp(), faulty) for faulty in ([0], [2])]
    cases += [("Figure 3", figure3_ccp(), faulty) for faulty in ([1], [2], [1, 2], [0, 1, 2, 3])]
    for execution, ccp, faulty in cases:
        lemma = recovery_line(ccp, faulty)
        yield {
            "execution": execution,
            "F": "{" + ", ".join(f"p{pid + 1}" for pid in faulty) + "}",
            "Lemma 1": _line(ccp, lemma),
            "Definition 5": _line(ccp, recovery_line_brute_force(ccp, faulty)),
            "rolled back": _stable_rolled_back(ccp, lemma),
        }


@_artifact("theorem-1")
def theorem1() -> Iterable[Row]:
    for execution, ccp in _executions():
        obsolete, needless = (obsolete_stable_checkpoints_theorem1(ccp),
                              needless_stable_checkpoints(ccp))
        yield {
            "execution": execution,
            "stable": ccp.total_stable_checkpoints(),
            "Theorem 1": len(obsolete),
            "Definition 7": len(needless),
            "same set": obsolete == needless,
        }


@_artifact("theorem-2")
def theorem2() -> Iterable[Row]:
    for execution, ccp in [*_executions(), ("worst case, n = 4", worst_case(4).final_ccp)]:
        theorem1 = obsolete_stable_checkpoints_theorem1(ccp)
        theorem2 = obsolete_stable_checkpoints_theorem2(ccp)
        corollary1 = obsolete_stable_checkpoints_corollary1(ccp)
        yield {
            "execution": execution,
            "stable": ccp.total_stable_checkpoints(),
            "Theorem 1": len(theorem1),
            "Theorem 2": len(theorem2),
            "Corollary 1": len(corollary1),
            "Theorem 2 = Corollary 1 ⊆ Theorem 1": theorem2 == corollary1 <= theorem1,
        }


@functools.cache
def _audit_sweep() -> List[Tuple[str, int, SimulationResult]]:
    """Theorems 4 and 5: FDAS, FDI and CBR with up to three crashes, 4 processes."""
    sweep = (("fdas", 0, 0), ("fdas", 1, 2), ("fdi", 2, 1), ("cbr", 3, 0), ("fdas", 4, 3))
    return [
        (protocol, seed, run_random_simulation(
            num_processes=4, duration=120.0, seed=seed, protocol=protocol,
            collector="rdt-lgc", crashes=crashes, audit="full",
        ))
        for protocol, seed, crashes in sweep
    ]


@_artifact("theorem-4")
def theorem4() -> Iterable[Row]:
    for protocol, seed, result in _audit_sweep():
        yield {
            "protocol": protocol,
            "seed": seed,
            "recoveries": len(result.recoveries),
            "audits": len(result.audits),
            "safety violations": sum(audit.safety_violations for audit in result.audits),
        }


@_artifact("theorem-5")
def theorem5() -> Iterable[Row]:
    for protocol, seed, result in _audit_sweep():
        yield {
            "protocol": protocol,
            "seed": seed,
            "stored": result.total_stored,
            "collected": result.total_collected,
            "retained": result.total_retained_final,
            "optimality violations": sum(a.optimality_violations for a in result.audits),
        }


# ----------------------------------------------------------------------
# Claims of Section 4.5
# ----------------------------------------------------------------------
@_artifact("space-bound")
def space_bound() -> Iterable[Row]:
    def uniform(n: int, collector: str) -> SimulationResult:
        options = {"period": 15.0} if collector == "wang-coordinated" else {}
        return run_random_simulation(
            num_processes=n, duration=150.0, seed=n, collector=collector, collector_options=options
        )

    for workload, run in (("worst case", worst_case), ("uniform random", uniform)):
        for n in (2, 4, 8):
            lgc, wang = run(n, "rdt-lgc"), run(n, "wang-coordinated")
            yield {
                "workload": workload,
                "n": n,
                "RDT-LGC transient": lgc.max_retained_any_process,
                "RDT-LGC at rest": max(lgc.retained_final),
                "RDT-LGC total": lgc.total_retained_final,
                "RDT-LGC control": lgc.control_messages,
                "Wang total": wang.total_retained_final,
                "Wang control": wang.control_messages,
            }


@_artifact("control-messages")
def control_messages() -> Iterable[Row]:
    for name, _ in STUDY_COLLECTORS:
        counts = [result.control_messages
                  for (_, collector), result in _storage_runs().items() if collector == name]
        yield {
            "collector": name,
            "runs": len(counts),
            "runs with control": sum(count > 0 for count in counts),
            "control messages": sum(counts),
        }


def _handler_lines(num_processes: int) -> Tuple[int, int]:
    """Lines executed by one receive and one checkpoint of ``p1``'s middleware.

    Every process is a node with the ``fdas`` protocol and the ``rdt-lgc``
    collector, Algorithm 4's merged FDAS + RDT-LGC.  ``p1`` has heard from
    every peer, so each entry of its ``UC`` holds a CCB, and it has sent in
    its current interval.  The counted receive brings new information about
    every peer, so FDAS forces a checkpoint before it is delivered (the most
    a receive can do); the counted basic checkpoint follows it.
    """
    transport, recorder = HandDrivenTransport(), TraceRecorder(num_processes)
    p1, *peers = nodes = [
        build_node(pid, num_processes, protocol="fdas", collector="rdt-lgc",
                   collector_options={}, transport=transport, trace=recorder)
        for pid in range(num_processes)
    ]
    for node in nodes:
        node.start()
    for peer in peers:
        p1.take_checkpoint()
        peer.send_message(p1.pid)
        p1.deliver(transport.sent[-1])
    # The last peer learns every peer's next interval and passes it on to p1.
    courier = peers[-1]
    for peer in peers:
        peer.take_checkpoint()
    for peer in peers[:-1]:
        peer.send_message(courier.pid)
        courier.deliver(transport.sent[-1])
    p1.send_message(courier.pid)
    courier.send_message(p1.pid)
    receive, checkpoint = _LineCounter(), _LineCounter()
    receive.counting(p1.deliver)(transport.sent[-1])
    checkpoint.counting(p1.take_checkpoint)()
    assert p1.forced_checkpoints == 1 and p1.collector.uc_view().count(None) == 0
    return receive.lines, checkpoint.lines


@_artifact("complexity")
def complexity() -> Iterable[Row]:
    for n in (4, 16, 64, 256):
        receive, checkpoint = _handler_lines(n)
        yield {
            "n": n,
            "deliver": receive,
            "take_checkpoint": checkpoint,
            "lines per process": (receive + checkpoint) / n,
        }


# ----------------------------------------------------------------------
# The evaluations the paper defers
# ----------------------------------------------------------------------
@functools.cache
def _storage_runs() -> Dict[Tuple[str, str], SimulationResult]:
    workloads = {
        "client-server": ClientServerWorkload,
        "pipeline": PipelineWorkload,
        "ring": RingWorkload,
        "uniform-random": lambda: UniformRandomWorkload(mean_checkpoint_gap=6.0),
    }
    return {
        (workload, collector): run_random_simulation(
            num_processes=4, duration=200.0, seed=7, collector=collector,
            collector_options=options, workload=make(), audit="safety",
        )
        for workload, make in workloads.items()
        for collector, options in STUDY_COLLECTORS
    }


@_artifact("evaluation-storage")
def evaluation_storage() -> Iterable[Row]:
    for (workload, collector), result in _storage_runs().items():
        yield {
            "workload": workload,
            "collector": collector,
            "peak": result.peak_total_retained,
            "final": result.total_retained_final,
            "max per process": result.max_retained_any_process,
            "collected": result.total_collected,
            "control": result.control_messages,
            "safe": result.all_audits_safe,
        }


@_artifact("evaluation-rollback")
def evaluation_rollback() -> Iterable[Row]:
    collectors: Sequence[Tuple[str, Dict[str, object]]] = (
        ("none", {}), ("rdt-lgc", {}), ("wang-coordinated", {"period": 20.0}),
    )
    for collector, options in collectors:
        result = run_random_simulation(
            num_processes=4, duration=200.0, seed=13, collector=collector,
            collector_options=options, crashes=3, audit="safety",
        )
        yield {
            "collector": collector,
            "recovery lines": [r.recovery_line for r in result.recoveries],
            "lost": [r.lost_general_checkpoints for r in result.recoveries],
            "processes rolled back": sum(r.rolled_back_processes for r in result.recoveries),
            "collected": sum(r.collected_during_recovery for r in result.recoveries),
            "safe": result.all_audits_safe,
        }
