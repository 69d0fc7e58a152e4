"""Deliberately broken collectors that mutation-test the oracle stack.

An explorer whose oracles never fire proves nothing.  The two canaries here
are RDT-LGC variants with one seeded, interleaving-flavoured bug each:

* :class:`UnsafeCanaryCollector` treats a **stale** message — one whose
  piggyback updates no dependency-vector entry, which only happens when
  deliveries are reordered so that newer information overtook it — as
  evidence that every checkpoint the ``UC`` table protects on behalf of a
  peer is obsolete, and releases those references.  Under delivery orders
  where the released checkpoint is still Theorem-1-required this *discards a
  required checkpoint*: a safety (Theorem 4) violation, and with a
  subsequent crash a broken recovery.
* :class:`HoarderCanaryCollector` vetoes every other elimination the ``UC``
  bookkeeping decides on, so a Theorem-2-obsolete checkpoint stays
  *retained*: an optimality (Theorem 5) violation while remaining perfectly
  safe.

Both resolve by name wherever a collector name is accepted, like every
other collector of :mod:`repro.gc.registry`, but their ``canary`` marker
keeps them out of :func:`~repro.gc.registry.available_collectors` and so out
of every default grid: they exist to be caught.  The conformance suite
asserts the explorer finds both within a fixed budget while RDT-LGC sweeps
the same space clean.
"""

from __future__ import annotations

from typing import Sequence

from repro.gc.rdt_lgc_collector import RdtLgcCollector
from repro.storage.stable import StableStorage


class UnsafeCanaryCollector(RdtLgcCollector):
    """RDT-LGC with a reordering-triggered unsafe release (test-only).

    The bug: a delivery that updates no DV entry is taken as proof that the
    sender-side knowledge protecting peer-referenced checkpoints is stale,
    and every non-self ``UC`` entry is released.  Plausible-looking — the
    message indeed carried nothing new — but Theorem 2 retains those
    checkpoints precisely *because* no newer causal knowledge has arrived.
    """

    name = "canary-unsafe"
    canary = True
    claims_optimality = False

    def on_receive(self, updated_entries: Sequence[int]) -> None:
        """Algorithm 2's receive step, except that a stale message releases
        every peer-held ``UC`` reference (the seeded bug)."""
        if updated_entries:
            super().on_receive(updated_entries)
            return
        # BUG: stale message => drop every peer-held retention reference.
        for entry in range(self._num_processes):
            if entry != self._pid:
                self._uc.release(entry)


class HoarderCanaryCollector(RdtLgcCollector):
    """RDT-LGC that vetoes every other elimination (test-only).

    The ``UC`` bookkeeping is untouched — references are released exactly as
    Algorithm 2 dictates — but when the table decides a checkpoint is
    collectible, every second decision is silently ignored and the
    checkpoint stays on stable storage.  Safe (retaining more never violates
    Theorem 4) but non-optimal: the survivor is Theorem-2-obsolete the
    moment RDT-LGC would have eliminated it.
    """

    name = "canary-hoarder"
    canary = True
    claims_optimality = True

    def __init__(self, pid: int, num_processes: int, storage: StableStorage) -> None:
        """An RDT-LGC collector for ``pid`` that has vetoed nothing yet."""
        super().__init__(pid, num_processes, storage)
        self._eliminations = 0

    def _eliminate(self, index: int) -> None:
        # The inherited UC table eliminates through this override.
        self._eliminations += 1
        if self._eliminations % 2 == 0:
            # BUG: every second collectible checkpoint is hoarded.
            return
        super()._eliminate(index)


#: The canary collectors' names, in the order the fuzz targets list them.
CANARY_NAMES = (UnsafeCanaryCollector.name, HoarderCanaryCollector.name)
