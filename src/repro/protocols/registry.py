"""The checkpointing protocols, keyed by name: a table fixed at import.

The table lets benchmarks and examples sweep over protocols by name
(``for proto in available_protocols(): ...``) without importing each class.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.protocols.base import CheckpointingProtocol
from repro.protocols.cbr import CheckpointBeforeReceiveProtocol
from repro.protocols.fdas import FixedDependencyAfterSendProtocol
from repro.protocols.fdi import FixedDependencyIntervalProtocol
from repro.protocols.uncoordinated import UncoordinatedProtocol

_PROTOCOLS: Dict[str, Type[CheckpointingProtocol]] = {
    cls.name: cls
    for cls in (
        UncoordinatedProtocol,
        CheckpointBeforeReceiveProtocol,
        FixedDependencyIntervalProtocol,
        FixedDependencyAfterSendProtocol,
    )
}


def available_protocols(*, rdt_only: bool = False) -> List[str]:
    """Names of all protocols (optionally only the RDT ones)."""
    return [
        name
        for name, cls in sorted(_PROTOCOLS.items())
        if not rdt_only or cls.ensures_rdt
    ]


def protocol_class(name: str) -> Type[CheckpointingProtocol]:
    """The protocol class named ``name``."""
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(sorted(_PROTOCOLS))}"
        ) from None


def make_protocol(name: str, pid: int, num_processes: int) -> CheckpointingProtocol:
    """Instantiate the protocol named ``name`` for one process."""
    return protocol_class(name)(pid, num_processes)

