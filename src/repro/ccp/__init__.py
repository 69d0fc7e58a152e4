"""Checkpoint-and-Communication-Pattern (CCP) substrate.

This subpackage turns a raw distributed execution (an
:class:`repro.causality.EventLog`) into the checkpoint-level objects the paper
reasons about:

* :mod:`checkpoint` — checkpoint identities, stable vs volatile checkpoints and
  checkpoint intervals (Section 2.2, Equation 1);
* :mod:`pattern` — the :class:`CCP` itself: general checkpoints, ``last_s(i)``,
  checkpoint-level causal precedence, ground-truth dependency vectors;
* :mod:`builder` — a fluent builder for hand-specified CCPs (used to reproduce
  the paper's figures exactly);
* :mod:`zigzag` — Netzer–Xu zigzag paths, C-paths vs Z-paths, zigzag cycles and
  useless checkpoints (Definition 3): the bitset interval-condensation kernel
  plus the brute-force BFS reference it is property-tested against;
* :mod:`analysis_cache` — the shared per-pattern bundle of derived analyses
  (zigzag kernel, Theorem-1/2 retained sets, recovery lines),
  reachable as ``ccp.analyses``;
* :mod:`rdt` — the rollback-dependency-trackability property checker
  (Definition 4);
* :mod:`consistency` — consistent global checkpoints.
"""

from repro.ccp.analysis_cache import AnalysisCache
from repro.ccp.builder import CCPBuilder
from repro.ccp.checkpoint import Checkpoint, CheckpointId, CheckpointKind
from repro.ccp.consistency import (
    GlobalCheckpoint,
    is_consistent_global_checkpoint,
)
from repro.ccp.pattern import CCP
from repro.ccp.rdt import RDTReport, check_rdt
from repro.ccp.zigzag import BruteForceZigzagAnalysis, ZigzagAnalysis, ZigzagPath

__all__ = [
    "AnalysisCache",
    "BruteForceZigzagAnalysis",
    "CCP",
    "CCPBuilder",
    "Checkpoint",
    "CheckpointId",
    "CheckpointKind",
    "GlobalCheckpoint",
    "RDTReport",
    "ZigzagAnalysis",
    "ZigzagPath",
    "check_rdt",
    "is_consistent_global_checkpoint",
]
