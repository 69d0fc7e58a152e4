"""Unit tests for the simulation node and the trace recorder."""

import pytest

from repro.ccp.checkpoint import CheckpointId
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.protocols.fdas import FixedDependencyAfterSendProtocol
from repro.recovery.manager import RecoveryManager
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import SimulationNode
from repro.simulation.trace import TraceRecorder
from repro.storage.stable import StableStorage


def _build_pair():
    engine = SimulationEngine(seed=0)
    network = Network(engine, NetworkConfig(jitter=0.0))
    trace = TraceRecorder(2)
    nodes = []
    for pid in range(2):
        storage = StableStorage(pid)
        nodes.append(
            SimulationNode(
                pid,
                2,
                transport=network,
                trace=trace,
                protocol=FixedDependencyAfterSendProtocol(pid, 2),
                collector=RdtLgcCollector(pid, 2, storage),
                storage=storage,
            )
        )
    network.on_app_delivery(lambda m: nodes[m.receiver].deliver(m))
    network.on_control_delivery(lambda s, r, p: None)
    for node in nodes:
        node.start()
    return engine, network, trace, nodes


class TestNodeBasics:
    def test_start_takes_the_initial_checkpoint(self):
        _, _, _, nodes = _build_pair()
        for node in nodes:
            assert node.storage.retained_indices() == [0]
            assert node.current_dv[node.pid] == 1

    def test_send_and_deliver_update_vectors(self):
        engine, _, _, nodes = _build_pair()
        nodes[0].send_message(1)
        engine.run()
        assert nodes[1].current_dv == (1, 1)
        assert nodes[1].messages_received == 1
        assert nodes[0].messages_sent == 1

    def test_self_send_rejected(self):
        _, _, _, nodes = _build_pair()
        with pytest.raises(ValueError):
            nodes[0].send_message(0)

    def test_forced_checkpoint_taken_before_delivery(self):
        engine, _, _, nodes = _build_pair()
        nodes[1].send_message(0)          # p1 sends: its sent flag is up
        nodes[0].send_message(1)          # p0 sends new information to p1
        engine.run()
        # p1 received p0's message after having sent: FDAS forces a checkpoint,
        # stored before the receive, so it does not contain the new dependency.
        assert nodes[1].forced_checkpoints == 1
        forced = nodes[1].storage.get(1)
        assert forced.forced
        assert forced.dependency_vector[0] == 0

    def test_crashed_node_ignores_traffic(self):
        engine, _, _, nodes = _build_pair()
        nodes[1].crash()
        assert nodes[1].crashed
        nodes[1].send_message(0)
        nodes[1].take_checkpoint()
        assert nodes[1].messages_sent == 0
        assert nodes[1].storage.retained_count() == 1


class TestNodeRecovery:
    def test_apply_rollback_restores_dv_and_runs_gc(self):
        engine, network, trace, nodes = _build_pair()
        nodes[0].send_message(1)
        engine.run()
        nodes[1].take_checkpoint()
        nodes[1].take_checkpoint()
        ccp = trace.ccp(volatile_dvs={n.pid: n.current_dv for n in nodes})
        plan = RecoveryManager().plan(ccp, [1])
        directive = plan.rollback_for(1)
        assert directive is not None
        nodes[1].apply_rollback(directive.rollback_index, plan.last_interval_vector)
        assert nodes[1].rollbacks == 1
        assert not nodes[1].crashed
        assert nodes[1].current_dv[1] == directive.rollback_index + 1

    def test_apply_peer_rollback_delegates_to_collector(self):
        engine, _, _, nodes = _build_pair()
        nodes[0].send_message(1)
        engine.run()
        collector = nodes[1].collector
        assert collector.uc_view()[0] == 0
        # p0 restarts far ahead of what p1 knows: UC[0] is released; the
        # checkpoint itself survives because it is still p1's last stable one.
        assert nodes[1].apply_peer_rollback((5, nodes[1].current_dv[1])) == []
        assert collector.uc_view()[0] is None


class TestTraceRecorder:
    def test_trace_builds_a_ccp_matching_the_run(self):
        engine, _, trace, nodes = _build_pair()
        nodes[0].send_message(1)
        engine.run()
        nodes[1].take_checkpoint()
        ccp = trace.ccp(volatile_dvs={n.pid: n.current_dv for n in nodes})
        assert ccp.last_stable(1) == 1
        assert ccp.checkpoint(CheckpointId(1, 1)).dependency_vector == (1, 1)
        assert len(ccp.messages()) == 1

    def test_receive_of_unknown_message_is_ignored(self):
        trace = TraceRecorder(2)
        trace.record_receive(99, 1.0)  # no exception

    def test_apply_recovery_truncates_history(self):
        engine, _, trace, nodes = _build_pair()
        nodes[0].send_message(1)
        engine.run()
        nodes[1].take_checkpoint()
        nodes[1].take_checkpoint()
        ccp = trace.ccp(volatile_dvs={n.pid: n.current_dv for n in nodes})
        plan = RecoveryManager().plan(ccp, [1])
        trace.apply_recovery(plan)
        truncated = trace.ccp()
        assert truncated.last_stable(1) == plan.recovery_line.indices[1]
        # Checkpoints rolled back are forgotten by the recorder.
        assert all(
            cid.index <= plan.recovery_line.indices[1]
            for cid in trace.recorded_checkpoint_dvs()
            if cid.pid == 1
        )

    def test_apply_recovery_rejects_unknown_checkpoint(self):
        trace = TraceRecorder(1)
        trace.record_checkpoint(0, 0, (0,), forced=False, time=0.0)
        from repro.ccp.consistency import GlobalCheckpoint
        from repro.recovery.rollback_plan import ProcessRollback, RollbackPlan

        bogus = RollbackPlan(
            faulty=(0,),
            recovery_line=GlobalCheckpoint((3,)),
            rollbacks=(ProcessRollback(0, 3),),
            last_interval_vector=(4,),
        )
        with pytest.raises(RuntimeError):
            trace.apply_recovery(bogus)
