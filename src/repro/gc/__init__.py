"""Garbage collectors for communication-induced checkpointing.

This subpackage hosts the online garbage collectors that can be attached to
simulated processes: the paper's RDT-LGC (through a thin adapter over
:mod:`repro.core`) and the baselines it is compared against in Section 5:

* :class:`NoGarbageCollector` — retain everything (the "price of autonomy");
* :class:`AllProcessLineCollector` — the simple control-message scheme of
  Bhargava & Lian / the Elnozahy et al. survey: periodically compute the
  recovery line for the failure of *all* processes and discard everything
  strictly older than it;
* :class:`WangCoordinatedCollector` — Wang et al. 1995: a coordinator gathers
  global dependency information and discards *every* obsolete checkpoint
  (Theorem 1), achieving the ``n(n+1)/2`` global bound at the cost of control
  messages;
* :class:`ManivannanSinghalCollector` — the time-based scheme: no control
  messages, but safety rests on an assumption about how often processes take
  basic checkpoints;
* :class:`RdtLgcCollector` — the paper's contribution: asynchronous (causal
  knowledge only), no control messages, no time assumptions, at most ``n``
  retained checkpoints per process.

:mod:`repro.gc.canaries` adds two deliberately broken RDT-LGC variants that
test the explorer's oracles; they resolve by name but no default grid sweeps
them.
"""

from repro.gc.all_process_line import AllProcessLineCollector
from repro.gc.base import ControlPlane, GarbageCollector
from repro.gc.manivannan_singhal import ManivannanSinghalCollector
from repro.gc.none_gc import NoGarbageCollector
from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.gc.registry import available_collectors, make_collector
from repro.gc.wang_coordinated import WangCoordinatedCollector

__all__ = [
    "AllProcessLineCollector",
    "ControlPlane",
    "GarbageCollector",
    "ManivannanSinghalCollector",
    "NoGarbageCollector",
    "RdtLgcCollector",
    "WangCoordinatedCollector",
    "available_collectors",
    "make_collector",
]
