"""Executable encodings of the paper's figures.

Process numbering: the paper's ``p_k`` corresponds to process ``k - 1`` here
(zero-based).  Message tags keep the paper's names where the figure gives
them.

Figure 3 note: the paper only shows checkpoint labels for that figure, not the
message pattern, so :func:`figure3_builder` constructs a *structurally
equivalent* scenario — the recovery line for ``F = {p2, p3}`` excludes
``p3``'s last stable checkpoint because it is causally preceded by ``p2``'s,
and the Theorem-1 obsolete set contains a "hole".  EXPERIMENTS.md records this
substitution.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.ccp.builder import CCPBuilder
from repro.ccp.pattern import CCP
from repro.simulation.node import SimulationNode, build_node
from repro.simulation.trace import TraceRecorder
from repro.transport.base import AppMessage, Transport

# ----------------------------------------------------------------------
# Figure 1 — example CCP
# ----------------------------------------------------------------------


def figure1_builder(*, include_m3: bool = True) -> CCPBuilder:
    """The CCP of Figure 1.

    Facts encoded by the figure and the text: ``[m1, m2]`` and ``[m1, m4]`` are
    C-paths, ``[m5, m4]`` is a Z-path, ``{v1, s2^1, s3^1}`` is consistent,
    ``{s1^0, s2^1, s3^1}`` is not, the CCP is RD-trackable, and removing ``m3``
    breaks RDT because ``s1^1 ~> s3^2`` is then not doubled by a causal path.
    """
    builder = CCPBuilder(3)
    builder.send(0, 1, tag="m1")
    builder.receive("m1")
    builder.send(1, 2, tag="m2")
    builder.send(1, 2, tag="m4")
    builder.checkpoint(0)  # s1^1
    builder.send(0, 1, tag="m5")
    builder.receive("m5")
    builder.checkpoint(1)  # s2^1
    builder.checkpoint(2)  # s3^1
    builder.receive("m2")
    builder.receive("m4")
    if include_m3:
        builder.send(0, 2, tag="m3")
        builder.receive("m3")
    builder.checkpoint(2)  # s3^2
    return builder


def figure1_ccp(*, include_m3: bool = True) -> CCP:
    """The built CCP of Figure 1 (optionally without message ``m3``)."""
    return figure1_builder(include_m3=include_m3).build()


# ----------------------------------------------------------------------
# Figure 2 — useless checkpoints and the domino effect
# ----------------------------------------------------------------------


def figure2_builder() -> CCPBuilder:
    """The crossing ping-pong CCP of Figure 2.

    Every non-initial stable checkpoint lies on a zigzag cycle, so a single
    failure forces the whole computation back to its initial state.
    """
    builder = CCPBuilder(2)
    builder.send(1, 0, tag="m1")
    builder.receive("m1")
    builder.checkpoint(0)  # s1^1
    builder.send(0, 1, tag="m2")
    builder.receive("m2")
    builder.checkpoint(1)  # s2^1
    builder.send(1, 0, tag="m3")
    builder.receive("m3")
    builder.checkpoint(0)  # s1^2
    builder.send(0, 1, tag="m4")
    builder.receive("m4")
    return builder


def figure2_ccp() -> CCP:
    """The built CCP of Figure 2."""
    return figure2_builder().build()


# ----------------------------------------------------------------------
# Figure 3 — recovery-line determination
# ----------------------------------------------------------------------


def figure3_builder() -> CCPBuilder:
    """A 4-process scenario with the structure of Figure 3 (see module docstring)."""
    builder = CCPBuilder(4)
    builder.checkpoint(3)  # s4^1
    for target in (0, 1, 2):
        tag = builder.send(3, target)
        builder.receive(tag)
    builder.checkpoint(0)  # s1^1
    builder.checkpoint(1)  # s2^1
    builder.checkpoint(2)  # s3^1
    builder.checkpoint(1)  # s2^2  (last stable of p2)
    tag = builder.send(1, 2)
    builder.receive(tag)
    builder.checkpoint(2)  # s3^2  (last stable of p3, causally after s2^2)
    tag = builder.send(1, 0)
    builder.receive(tag)
    builder.checkpoint(0)  # s1^2
    builder.checkpoint(0)  # s1^3 (turns s1^2 into an obsolete "hole")
    builder.checkpoint(3)  # s4^2
    builder.checkpoint(3)  # s4^3
    return builder


def figure3_ccp() -> CCP:
    """The built CCP of the Figure 3 scenario."""
    return figure3_builder().build()


# ----------------------------------------------------------------------
# Figure 4 — a full RDT-LGC execution with DV / UC annotations
# ----------------------------------------------------------------------

#: The annotations printed in Figure 4, keyed by event.  At checkpoint events
#: the paper shows the *stored* dependency vector (pre-increment) together with
#: the ``UC`` table after the update; at other events the current vector.
FIGURE4_ANNOTATIONS: Dict[str, Tuple[Tuple[int, ...], Tuple[Optional[int], ...]]] = {
    "p1 s^0": ((0, 0, 0), (0, None, None)),
    "p2 s^0": ((0, 0, 0), (None, 0, None)),
    "p3 s^0": ((0, 0, 0), (None, None, 0)),
    "p1 send m_a": ((1, 0, 0), (0, None, None)),
    "p2 recv m_a": ((1, 1, 0), (0, 0, None)),
    "p2 s^1": ((1, 1, 0), (0, 1, None)),
    "p2 send m_b1": ((1, 2, 0), (0, 1, None)),
    "p3 recv m_b0": ((1, 1, 1), (0, 0, 0)),
    "p3 s^1": ((1, 1, 1), (0, 0, 1)),
    "p2 s^2": ((1, 2, 2), (0, 2, 1)),
    "p2 s^3": ((1, 3, 2), (0, 3, 1)),
    "p3 s^2": ((1, 1, 2), (0, 0, 2)),
    "p3 s^3": ((1, 3, 3), (0, 2, 3)),
    "p2 final": ((1, 4, 2), (0, 3, 1)),
    "p3 final": ((1, 4, 4), (0, 3, 3)),
    "p1 final": ((1, 0, 0), (0, None, None)),
}

#: The end-of-execution state of each process: dependency vector, ``UC`` table
#: and the stable checkpoints still on storage.
FIGURE4_EXPECTED_FINAL = {
    0: {"dv": (1, 0, 0), "uc": (0, None, None), "retained": [0]},
    1: {"dv": (1, 4, 2), "uc": (0, 3, 1), "retained": [0, 1, 3]},
    2: {"dv": (1, 4, 4), "uc": (0, 3, 3), "retained": [0, 3]},
}


class HandDrivenTransport(Transport):
    """A :class:`Transport` for executions written out event by event.

    A sent message waits in :attr:`sent` until the caller hands it to the
    receiver's :meth:`SimulationNode.deliver`, and the clock stands still.  A
    control message or a timer raises: a collector that needs one is not
    asynchronous (Definition 8), so on this transport the definition is
    checked by running.
    """

    def __init__(self) -> None:
        self.sent: List[AppMessage] = []

    def now(self) -> float:
        return 0.0

    def send_app_message(
        self, sender: int, receiver: int, piggyback: Tuple[int, ...]
    ) -> AppMessage:
        message = AppMessage(len(self.sent), sender, receiver, piggyback)
        self.sent.append(message)
        return message

    def send_control_message(self, sender: int, receiver: int, payload: Any) -> None:
        raise RuntimeError("an asynchronous collector sends no control message (Definition 8)")

    def schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        raise RuntimeError("an asynchronous collector sets no timer (Definition 8)")


Figure4Step = Tuple[str, Tuple[int, ...], Tuple[Optional[int], ...]]


class Figure4Run(NamedTuple):
    """The driven Figure 4 execution: its processes, its recording, its annotations."""

    nodes: Tuple[SimulationNode, ...]
    recorder: TraceRecorder
    steps: List[Figure4Step]


def drive_figure4() -> Figure4Run:
    """Replay the Figure 4 execution on three RDT-LGC middleware nodes.

    The nodes are the ones every backend runs (:func:`build_node`, protocol
    ``uncoordinated``, collector ``rdt-lgc``) on a :class:`HandDrivenTransport`,
    recording into one :class:`TraceRecorder`.  The steps are ``(event label,
    DV as annotated, UC view)`` in the figure's reading order; the labels
    match the keys of :data:`FIGURE4_ANNOTATIONS`.  At a checkpoint the
    annotated vector is the one stored with it.
    """
    transport, recorder = HandDrivenTransport(), TraceRecorder(3)
    p1, p2, p3 = nodes = tuple(
        build_node(pid, 3, protocol="uncoordinated", collector="rdt-lgc",
                   collector_options={}, transport=transport, trace=recorder)
        for pid in range(3)
    )
    steps: List[Figure4Step] = []

    def snap(label: str, node: SimulationNode) -> None:
        steps.append((label, node.current_dv, node.collector.uc_view()))

    def checkpoint(label: str, node: SimulationNode) -> None:
        index = node.take_checkpoint()
        stored = node.storage.get(index).dependency_vector
        steps.append((label, stored, node.collector.uc_view()))

    def send(node: SimulationNode, destination: SimulationNode) -> AppMessage:
        node.send_message(destination.pid)
        return transport.sent[-1]

    for node, label in ((p1, "p1 s^0"), (p2, "p2 s^0"), (p3, "p3 s^0")):
        checkpoint(label, node)
    m_a = send(p1, p2)
    snap("p1 send m_a", p1)
    p2.deliver(m_a)
    snap("p2 recv m_a", p2)
    m_b0 = send(p2, p3)
    checkpoint("p2 s^1", p2)
    send(p2, p3)  # m_b1 stays in transit, as drawn in the figure
    snap("p2 send m_b1", p2)
    p3.deliver(m_b0)
    snap("p3 recv m_b0", p3)
    checkpoint("p3 s^1", p3)
    p2.deliver(send(p3, p2))  # m_c1
    checkpoint("p2 s^2", p2)
    m_d1 = send(p2, p3)
    checkpoint("p2 s^3", p2)
    checkpoint("p3 s^2", p3)
    p3.deliver(m_d1)
    checkpoint("p3 s^3", p3)
    m_d2 = send(p2, p3)
    snap("p2 final", p2)
    p3.deliver(m_d2)
    snap("p3 final", p3)
    snap("p1 final", p1)
    return Figure4Run(nodes, recorder, steps)


def figure4_ccp() -> CCP:
    """The CCP of the Figure 4 execution (for the offline oracles): the
    recording of :func:`drive_figure4`."""
    return drive_figure4().recorder.ccp()
