"""Causality substrate: events, happened-before, dependency vectors.

This subpackage provides the ground-truth causal machinery that the rest of the
library is built on.  It is deliberately independent from checkpointing: it
only knows about processes, events, messages and Lamport's happened-before
relation.

Modules
-------
``events``
    Event and message records plus the :class:`EventLog` container that stores
    a full distributed execution.
``happens_before``
    The :class:`CausalOrder` oracle, which answers ``e -> e'`` queries over an
    :class:`EventLog` using per-event vector timestamps (tuples).
``dependency_vector``
    The transitive dependency vector of Strom & Yemini as used by RDT
    checkpointing protocols (Section 4.2 of the paper), including the
    checkpoint-level causal-precedence test of Equation (2).
"""

from repro.causality.dependency_vector import DependencyVector
from repro.causality.events import (
    Event,
    EventId,
    EventKind,
    EventLog,
    Message,
    ProcessHistory,
)
from repro.causality.happens_before import CausalOrder

__all__ = [
    "CausalOrder",
    "DependencyVector",
    "Event",
    "EventId",
    "EventKind",
    "EventLog",
    "Message",
    "ProcessHistory",
]
