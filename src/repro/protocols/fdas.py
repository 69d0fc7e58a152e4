"""Fixed-Dependency-After-Send (FDAS, Wang 1997).

After a process sends its first message in a checkpoint interval, its
dependency vector must stay fixed for the remainder of the interval.  A
message that arrives carrying new causal information after such a send
triggers a forced checkpoint before it is delivered.  FDAS is the protocol
the paper merges with RDT-LGC in Algorithm 4: a node with this protocol and
the ``rdt-lgc`` collector is that merged middleware, one dependency vector
serving both, so the collector adds no piggybacked information.

Note on the pseudocode: the paper's Algorithm 4 listing maintains a ``sent``
flag (set before every send, cleared at every checkpoint) but the condition
printed in the receive handler tests only the ``forced`` latch.  Taking a
forced checkpoint on *every* dependency-changing receive would be the stricter
FDI protocol, which makes the ``sent`` flag pointless; this class implements
the standard FDAS condition — new causal information *and* a send already
performed in the current interval — which is what the flag exists for.  Both
variants ensure RDT (FDI takes strictly more forced checkpoints), and FDI is
:mod:`repro.protocols.fdi`.
"""

from __future__ import annotations

from typing import Sequence

from repro.protocols.base import CheckpointingProtocol


class FixedDependencyAfterSendProtocol(CheckpointingProtocol):
    """Force a checkpoint before any dependency-changing receive that follows a send."""

    name = "fdas"
    ensures_rdt = True

    def __init__(self, pid: int, num_processes: int) -> None:
        super().__init__(pid, num_processes)
        self._sent_in_interval = False

    @property
    def sent_in_current_interval(self) -> bool:
        """The FDAS ``sent`` flag."""
        return self._sent_in_interval

    def notify_send(self) -> None:
        self._sent_in_interval = True

    def notify_checkpoint(self) -> None:
        self._sent_in_interval = False

    def should_force_checkpoint(
        self, current_dv: Sequence[int], piggybacked: Sequence[int]
    ) -> bool:
        """Force iff the message brings new causal information after a send."""
        return self._sent_in_interval and self.brings_new_information(
            current_dv, piggybacked
        )
