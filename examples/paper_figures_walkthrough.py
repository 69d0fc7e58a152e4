#!/usr/bin/env python3
"""Walk through the paper's figures using the library's analysis tools.

For each figure the script rebuilds the scenario, prints an ASCII space-time
diagram and re-derives the facts the paper states about it: path
classifications and consistency for Figure 1, useless checkpoints and the
domino effect for Figure 2, recovery-line determination for Figure 3, the full
annotated RDT-LGC execution for Figure 4 and the worst-case bound for Figure 5.
"""

from repro.ccp.rdt import check_rdt
from repro.ccp.zigzag import ZigzagAnalysis
from repro.core.obsolete import obsolete_stable_checkpoints_theorem1
from repro.recovery.recovery_line import recovery_line, recovery_line_brute_force
from repro.scenarios.experiments import run_worst_case
from repro.scenarios.figures import drive_figure4, figure1_ccp, figure2_ccp, figure3_ccp
from repro.viz.ascii_diagram import render_ccp, render_gc_trace


def figure1() -> None:
    print("=" * 72)
    print("Figure 1 — example CCP, zigzag paths and consistency")
    ccp = figure1_ccp()
    print(render_ccp(ccp))
    analysis = ZigzagAnalysis(ccp)
    print(f"[m1, m2] is a C-path: {analysis.is_causal_sequence([0, 1])}")
    print(f"[m5, m4] is a Z-path: {not analysis.is_causal_sequence([3, 2])}")
    print(f"pattern is RD-trackable: {check_rdt(ccp).is_rdt}")
    print(f"without m3 it would not be: {not check_rdt(figure1_ccp(include_m3=False)).is_rdt}")


def figure2() -> None:
    print("=" * 72)
    print("Figure 2 — useless checkpoints and the domino effect")
    ccp = figure2_ccp()
    print(render_ccp(ccp))
    useless = ZigzagAnalysis(ccp).useless_checkpoints()
    print(f"useless checkpoints: {[str(c) for c in useless]}")
    line = recovery_line_brute_force(ccp, [0])
    print(f"if p1 fails the recovery line is {line.indices}: back to the initial state")


def figure3() -> None:
    print("=" * 72)
    print("Figure 3 — recovery-line determination (structurally equivalent scenario)")
    ccp = figure3_ccp()
    print(render_ccp(ccp))
    line = recovery_line(ccp, [1, 2])
    print(f"recovery line for F = {{p2, p3}}: {line.indices}")
    print(
        "p3's last stable checkpoint is excluded because it is causally "
        f"preceded by p2's: {ccp.causally_precedes(ccp.last_stable_id(1), ccp.last_stable_id(2))}"
    )
    obsolete = sorted(obsolete_stable_checkpoints_theorem1(ccp))
    print(f"obsolete checkpoints (Theorem 1): {[str(c) for c in obsolete]}")


def figure4() -> None:
    print("=" * 72)
    print("Figure 4 — RDT-LGC execution with DV / UC annotations")
    print("(three middleware nodes with the rdt-lgc collector, driven by hand)")
    run = drive_figure4()
    print(render_gc_trace(run.steps))
    eliminated = [
        f"s{node.pid + 1}^{index}"
        for node in run.nodes
        for index in node.collector.collected_indices()
    ]
    print(f"eliminated online: {eliminated}")
    print(
        "obsolete but not identifiable from causal knowledge: s2^1 "
        f"(still stored: {run.nodes[1].storage.contains(1)})"
    )


def figure5() -> None:
    print("=" * 72)
    print("Figure 5 — worst-case scenario (n = 4)")
    result = run_worst_case(4)
    print(f"retained per process: {list(result.retained_final)} (bound: n = 4)")
    print(f"high-water marks: {list(result.max_retained_per_process)} (bound: n + 1)")


def main() -> None:
    figure1()
    figure2()
    figure3()
    figure4()
    figure5()


if __name__ == "__main__":
    main()
