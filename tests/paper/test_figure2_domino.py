"""FIG-2: useless checkpoints and the domino effect."""

from experiments import fdas_ring_ccp, figure2

from repro.ccp.checkpoint import CheckpointId
from repro.ccp.rdt import check_rdt
from repro.ccp.zigzag import ZigzagAnalysis
from repro.recovery.recovery_line import recovery_line_brute_force, rolled_back_checkpoints


class TestFigure2:
    def test_all_non_initial_stable_checkpoints_are_useless(self, figure2_ccp):
        useless = set(ZigzagAnalysis(figure2_ccp).useless_checkpoints())
        assert useless == {CheckpointId(0, 1), CheckpointId(0, 2), CheckpointId(1, 1)}

    def test_pattern_is_not_rd_trackable(self, figure2_ccp):
        report = check_rdt(figure2_ccp)
        assert not report.is_rdt
        assert report.useless_checkpoints  # zigzag cycles are RDT violations

    def test_single_failure_causes_total_rollback(self, figure2_ccp):
        """The domino effect: any single failure sends both processes to their
        initial checkpoints."""
        for faulty in (0, 1):
            line = recovery_line_brute_force(figure2_ccp, [faulty])
            assert line.indices == (0, 0)

    def test_every_non_initial_checkpoint_is_lost(self, figure2_ccp):
        line = recovery_line_brute_force(figure2_ccp, [0])
        rolled = rolled_back_checkpoints(figure2_ccp, line)
        stable_rolled = [cid for cid in rolled if figure2_ccp.is_stable(cid)]
        assert set(stable_rolled) == {
            CheckpointId(0, 1),
            CheckpointId(0, 2),
            CheckpointId(1, 1),
        }


class TestDominoAvoidedByRdtProtocols:
    def test_fdas_prevents_the_domino_effect_on_ping_pong_traffic(self):
        """Running ping-pong traffic under FDAS yields an RD-trackable pattern
        with no useless checkpoints, in contrast to Figure 2."""
        ccp = fdas_ring_ccp()
        assert check_rdt(ccp).is_rdt
        assert ZigzagAnalysis(ccp).useless_checkpoints() == []

    def test_a_failure_under_fdas_rolls_back_less_than_everything(self):
        """The failure (``F = {p1}``) that sends Figure 2 back to its initial
        state keeps FDAS clear of the domino effect on the same traffic."""
        _, fdas = figure2()
        non_initial = fdas["stable"] - 2
        assert fdas["rolled back"] < non_initial

    def test_uncoordinated_protocol_reproduces_useless_checkpoints(self):
        """The same traffic without forced checkpoints produces useless checkpoints."""
        from repro.simulation.runner import SimulationConfig, SimulationRunner
        from repro.simulation.workloads import RingWorkload

        config = SimulationConfig(
            num_processes=2,
            duration=80.0,
            workload=RingWorkload(period=3.0, mean_checkpoint_gap=7.0),
            protocol="uncoordinated",
            collector="none",
            seed=11,
            keep_final_ccp=True,
        )
        result = SimulationRunner(config).run()
        assert result.final_ccp is not None
        assert not check_rdt(result.final_ccp).is_rdt
