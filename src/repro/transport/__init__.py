"""Transport abstraction: the seam between the middleware and its world.

The checkpointing middleware (:class:`repro.simulation.node.SimulationNode`,
its control plane, the protocols and the garbage collectors) talks to its
environment only through a :class:`Transport`.  Two implementations exist:

* :class:`repro.simulation.network.Network` — the discrete-event simulator
  (the engine's virtual clock, one in-process network for all nodes).
* :class:`repro.live.transport.LiveTransport` — real OS processes exchanging
  UDP datagrams on localhost, with scaled wall-clock timers.

Both draw every message's fate (loss, duplication, latency, partition gate,
FIFO clamp) from :class:`repro.simulation.network.LinkFates`, so a live run
injects physically the very values the simulator schedules.
"""

from repro.transport.base import AppMessage, TraceRecorderPort, Transport

__all__ = ["AppMessage", "TraceRecorderPort", "Transport"]
