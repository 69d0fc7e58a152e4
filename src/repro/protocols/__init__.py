"""Communication-induced checkpointing protocols.

The paper assumes the application runs an *RDT checkpointing protocol*: a
communication-induced protocol that piggybacks dependency vectors and takes
forced checkpoints so that every checkpoint and communication pattern is
RD-trackable.  This subpackage provides several such protocols (plus the
purely uncoordinated baseline that is *not* RDT and exhibits the domino
effect), expressed as *policies*: given the process's current dependency
vector and the vector piggybacked on an arriving message, should a forced
checkpoint be taken before the message is delivered?

Protocols, from most to least eager:

* :class:`CheckpointBeforeReceiveProtocol` (CBR) — a receive is always the
  first event of its interval;
* :class:`FixedDependencyIntervalProtocol` (FDI) — the dependency vector may
  only change at interval boundaries;
* :class:`FixedDependencyAfterSendProtocol` (FDAS, Wang 1997) — the dependency
  vector may not change after the first send of an interval;
* :class:`UncoordinatedProtocol` — never forces a checkpoint (not RDT).

The separation protocol-as-policy / node-as-mechanism lets any protocol be
paired with any garbage collector; FDAS paired with the ``rdt-lgc`` collector
is Algorithm 4's merged FDAS + RDT-LGC.
"""

from repro.protocols.base import CheckpointingProtocol
from repro.protocols.cbr import CheckpointBeforeReceiveProtocol
from repro.protocols.fdas import FixedDependencyAfterSendProtocol
from repro.protocols.fdi import FixedDependencyIntervalProtocol
from repro.protocols.registry import available_protocols, make_protocol
from repro.protocols.uncoordinated import UncoordinatedProtocol

__all__ = [
    "CheckpointBeforeReceiveProtocol",
    "CheckpointingProtocol",
    "FixedDependencyAfterSendProtocol",
    "FixedDependencyIntervalProtocol",
    "UncoordinatedProtocol",
    "available_protocols",
    "make_protocol",
]
