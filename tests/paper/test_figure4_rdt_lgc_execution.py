"""FIG-4: the worked RDT-LGC execution, reproduced value for value.

The paper annotates selected events of a 3-process execution with the contents
of ``DV`` (stored vector at checkpoint events, current vector elsewhere) and
``UC``.  ``drive_figure4`` replays that execution on three middleware nodes
with the ``rdt-lgc`` collector, the stack every backend runs; these tests
compare every annotation, the set of checkpoints eliminated online (``s2^2``,
``s3^1``, ``s3^2``) and the one obsolete checkpoint RDT-LGC cannot identify
(``s2^1``).
"""

import pytest

from repro.ccp.checkpoint import CheckpointId
from repro.core.obsolete import (
    obsolete_stable_checkpoints_theorem1,
    obsolete_stable_checkpoints_theorem2,
)
from repro.scenarios.figures import (
    FIGURE4_ANNOTATIONS,
    FIGURE4_EXPECTED_FINAL,
    drive_figure4,
)


@pytest.fixture
def figure4_run():
    run = drive_figure4()
    return run, {label: (dv, uc) for label, dv, uc in run.steps}


class TestFigure4Annotations:
    def test_every_annotated_state_matches_the_paper(self, figure4_run):
        _, observed = figure4_run
        for label, expected in FIGURE4_ANNOTATIONS.items():
            assert observed[label] == expected, f"mismatch at {label}"

    def test_final_states(self, figure4_run):
        run, _ = figure4_run
        for pid, expectations in FIGURE4_EXPECTED_FINAL.items():
            node = run.nodes[pid]
            assert node.current_dv == expectations["dv"]
            assert node.collector.uc_view() == expectations["uc"]
            assert node.storage.retained_indices() == expectations["retained"]

    def test_the_recording_is_the_figure4_pattern(self, figure4_run, figure4_ccp):
        """The offline oracles' pattern carries the annotated vectors: the
        stored one at every checkpoint, the final one at every volatile
        checkpoint; and it is what the driven run records."""
        run, _ = figure4_run
        for label, (dv, _) in FIGURE4_ANNOTATIONS.items():
            process, event = label.split(" ", 1)
            pid = int(process[1:]) - 1
            if event.startswith("s^"):
                cid = CheckpointId(pid, int(event[2:]))
            elif event == "final":
                cid = figure4_ccp.volatile_id(pid)
            else:
                continue
            assert figure4_ccp.checkpoint(cid).dependency_vector == dv, label
        recorded = run.recorder.ccp()
        assert recorded.messages() == figure4_ccp.messages()
        for oracle in (obsolete_stable_checkpoints_theorem1, obsolete_stable_checkpoints_theorem2):
            assert oracle(recorded) == oracle(figure4_ccp)


class TestFigure4Eliminations:
    def test_eliminated_checkpoints_match_the_empty_squares(self, figure4_run):
        run, _ = figure4_run
        # s2^2 eliminated by p2; s3^1 and s3^2 eliminated by p3.
        assert run.nodes[1].collector.collected_indices() == [2]
        assert run.nodes[2].collector.collected_indices() == [1, 2]

    def test_s2_1_is_the_only_unidentified_obsolete_checkpoint(
        self, figure4_run, figure4_ccp
    ):
        run, _ = figure4_run
        theorem1 = obsolete_stable_checkpoints_theorem1(figure4_ccp)
        retained = {
            CheckpointId(node.pid, index)
            for node in run.nodes
            for index in node.storage.retained_indices()
        }
        unidentified = theorem1 & retained
        assert unidentified == {CheckpointId(1, 1)}

    def test_rdt_lgc_collects_exactly_the_theorem2_set(self, figure4_run, figure4_ccp):
        """Theorem 5 on this execution: what was eliminated == what causal
        knowledge can identify."""
        run, _ = figure4_run
        eliminated = {
            CheckpointId(node.pid, index)
            for node in run.nodes
            for index in node.collector.collected_indices()
        }
        assert eliminated == obsolete_stable_checkpoints_theorem2(figure4_ccp)
