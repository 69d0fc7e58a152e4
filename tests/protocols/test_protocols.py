"""Unit tests for the checkpointing protocol policies."""

import pytest

from repro.protocols.base import CheckpointingProtocol
from repro.protocols.cbr import CheckpointBeforeReceiveProtocol
from repro.protocols.fdas import FixedDependencyAfterSendProtocol
from repro.protocols.fdi import FixedDependencyIntervalProtocol
from repro.protocols.registry import (
    available_protocols,
    make_protocol,
    protocol_class,
)
from repro.protocols.uncoordinated import UncoordinatedProtocol


class TestBaseBehaviour:
    def test_pid_validation(self):
        with pytest.raises(ValueError):
            UncoordinatedProtocol(4, 3)

    def test_brings_new_information(self):
        assert CheckpointingProtocol.brings_new_information((0, 1), (1, 1))
        assert not CheckpointingProtocol.brings_new_information((2, 2), (1, 2))


class TestUncoordinated:
    def test_never_forces(self):
        protocol = UncoordinatedProtocol(0, 2)
        protocol.notify_send()
        assert not protocol.should_force_checkpoint((0, 0), (5, 5))
        assert not protocol.ensures_rdt


class TestFdas:
    def test_forces_only_after_a_send_with_new_information(self):
        protocol = FixedDependencyAfterSendProtocol(1, 2)
        assert not protocol.should_force_checkpoint((0, 1), (1, 0))
        protocol.notify_send()
        assert protocol.should_force_checkpoint((0, 1), (1, 0))
        assert not protocol.should_force_checkpoint((1, 1), (1, 0))  # no new info

    def test_checkpoint_resets_the_sent_flag(self):
        protocol = FixedDependencyAfterSendProtocol(1, 2)
        protocol.notify_send()
        protocol.notify_checkpoint()
        assert not protocol.sent_in_current_interval
        assert not protocol.should_force_checkpoint((0, 1), (1, 0))

    def test_reset_after_rollback_clears_state(self):
        protocol = FixedDependencyAfterSendProtocol(1, 2)
        protocol.notify_send()
        protocol.reset_after_rollback()
        assert not protocol.should_force_checkpoint((0, 1), (1, 0))


class TestFdi:
    def test_forces_on_new_information_in_a_used_interval(self):
        protocol = FixedDependencyIntervalProtocol(1, 2)
        assert not protocol.should_force_checkpoint((0, 1), (1, 0))  # fresh interval
        protocol.notify_receive()
        assert protocol.should_force_checkpoint((0, 1), (1, 0))
        assert not protocol.should_force_checkpoint((2, 1), (1, 0))  # no new info

    def test_a_send_also_marks_the_interval_used(self):
        protocol = FixedDependencyIntervalProtocol(1, 2)
        protocol.notify_send()
        assert protocol.should_force_checkpoint((0, 1), (1, 0))


class TestCbr:
    def test_forces_on_any_receive_in_a_used_interval(self):
        protocol = CheckpointBeforeReceiveProtocol(1, 2)
        assert not protocol.should_force_checkpoint((5, 5), (1, 1))  # fresh interval
        protocol.notify_receive()
        # Even a message with no new information forces a checkpoint.
        assert protocol.should_force_checkpoint((5, 5), (1, 1))

    def test_checkpoint_opens_a_fresh_interval(self):
        protocol = CheckpointBeforeReceiveProtocol(1, 2)
        protocol.notify_send()
        protocol.notify_checkpoint()
        assert not protocol.should_force_checkpoint((5, 5), (1, 1))


class TestEagernessOrdering:
    def test_cbr_is_at_least_as_eager_as_fdi_which_is_at_least_as_eager_as_fdas(self):
        """Whenever FDAS forces, FDI forces; whenever FDI forces, CBR forces."""
        scenarios = [
            ("send", (0, 1), (1, 0)),
            ("receive", (0, 1), (1, 0)),
            ("send", (2, 1), (1, 0)),
            ("fresh", (0, 1), (1, 0)),
        ]
        for prior, dv, piggy in scenarios:
            fdas = FixedDependencyAfterSendProtocol(1, 2)
            fdi = FixedDependencyIntervalProtocol(1, 2)
            cbr = CheckpointBeforeReceiveProtocol(1, 2)
            for protocol in (fdas, fdi, cbr):
                if prior == "send":
                    protocol.notify_send()
                elif prior == "receive":
                    protocol.notify_receive()
            fdas_forces = fdas.should_force_checkpoint(dv, piggy)
            fdi_forces = fdi.should_force_checkpoint(dv, piggy)
            cbr_forces = cbr.should_force_checkpoint(dv, piggy)
            assert (not fdas_forces) or fdi_forces
            assert (not fdi_forces) or cbr_forces


class TestRegistry:
    def test_available_protocols(self):
        names = available_protocols()
        assert {"uncoordinated", "cbr", "fdi", "fdas"} <= set(names)

    def test_rdt_only_filter(self):
        assert "uncoordinated" not in available_protocols(rdt_only=True)

    def test_make_protocol(self):
        protocol = make_protocol("fdas", 1, 4)
        assert isinstance(protocol, FixedDependencyAfterSendProtocol)
        assert protocol.pid == 1 and protocol.num_processes == 4

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            protocol_class("nope")
