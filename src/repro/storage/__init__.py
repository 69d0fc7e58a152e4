"""Stable-storage substrate.

The paper's model gives every process a stable storage that persists through
crashes (Section 2).  The classes here simulate exactly that: an in-memory
store whose contents survive the simulated loss of a process's volatile state.
Garbage collection is, operationally, the act of calling
:meth:`StableStorage.eliminate` on obsolete checkpoint indices; the store also
counts those eliminations and its high-water mark for the evaluation.
"""

from repro.storage.records import StoredCheckpoint
from repro.storage.stable import StableStorage

__all__ = ["StableStorage", "StoredCheckpoint"]
