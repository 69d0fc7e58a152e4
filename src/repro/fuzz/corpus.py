"""The fuzzer's deduplicating, replayable on-disk corpus.

A corpus is a directory::

    corpus/
      index.json                     # entries + coverage map (one JSON doc)
      entries/<id>.trace.jsonl       # one replayable v2 traceio artifact each
      counterexamples/<name>.trace.jsonl   # shrunk violations (explore format)

Every entry is **content-addressed**: its id is the SHA-256 of the canonical
JSON of (configuration, schedule), so re-adding an input a previous run
already found is a no-op and two runs that discover the same schedule store
byte-identical artifacts under the same name.  Entry artifacts reuse the
v2 traceio format with explorer-style provenance (configuration + schedule
in the header ``meta``), so every corpus item replays through
:mod:`repro.traceio` alone and re-executes live byte-identically —
:func:`replay_corpus_entry` checks both, exactly like
:func:`repro.explore.replay_counterexample` does for violations.

The index also persists the :class:`~repro.fuzz.coverage.CoverageMap`, so a
warm start (nightly CI restores the corpus from cache) resumes novelty
decisions where the previous run stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.explore.executor import ScheduleExecutor
from repro.explore.program import Choice, ExploreConfig
from repro.explore.shrink import replay_artifact
from repro.fuzz.coverage import CoverageMap, Feature

#: Name of the index document inside a corpus directory.
INDEX_NAME = "index.json"
#: Subdirectory holding the per-entry trace artifacts.
ENTRIES_DIR = "entries"
#: Subdirectory holding shrunk counterexample artifacts.
COUNTEREXAMPLES_DIR = "counterexamples"


def entry_id(config: ExploreConfig, schedule: Sequence[Choice]) -> str:
    """The content address of one (configuration, schedule) input.

    Args:
        config: the fixed configuration.
        schedule: the schedule tokens.

    Returns:
        The first 16 hex digits of the SHA-256 of the canonical JSON of the
        pair — stable across runs, processes and platforms.
    """
    canonical = json.dumps(
        {
            "config": config.describe(),
            "schedule": [list(token) for token in schedule],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus input: a schedule, its coverage, and its lineage."""

    entry_id: str
    config: ExploreConfig
    schedule: Tuple[Choice, ...]
    #: Features this input newly exhibited when it was added.
    features: Tuple[Feature, ...]
    #: Parent entry id (``None`` for seeds).
    parent: Optional[str] = None
    #: Mutation operator that produced it (``"seed"`` for seeds).
    op: str = "seed"

    def as_document(self) -> Dict[str, Any]:
        """JSON-encodable form (one element of the index's entry list).

        Returns:
            The entry as a plain dict.
        """
        return {
            "id": self.entry_id,
            "config": self.config.describe(),
            "schedule": [list(token) for token in self.schedule],
            "features": [list(feature) for feature in self.features],
            "parent": self.parent,
            "op": self.op,
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "CorpusEntry":
        """Rebuild an entry from its :meth:`as_document` form.

        Args:
            document: the persisted form.

        Returns:
            An equivalent :class:`CorpusEntry`.
        """
        return cls(
            entry_id=str(document["id"]),
            config=ExploreConfig.from_mapping(document["config"]),
            schedule=tuple(
                (str(kind), int(value)) for kind, value in document["schedule"]
            ),
            features=tuple(tuple(feature) for feature in document["features"]),
            parent=document.get("parent"),
            op=str(document.get("op", "seed")),
        )


@dataclass
class Corpus:
    """Ordered, deduplicating collection of corpus entries.

    With ``root`` set the corpus is disk-backed: :meth:`add` persists one
    replayable trace artifact per entry and :meth:`save` writes the index;
    without it the corpus is purely in-memory (the benchmark's mode).
    """

    root: Optional[str] = None
    entries: Dict[str, CorpusEntry] = field(default_factory=dict)
    coverage: CoverageMap = field(default_factory=CoverageMap)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: str) -> "Corpus":
        """Open a disk-backed corpus, warm or cold.

        Args:
            root: the corpus directory (created lazily on first save).

        Returns:
            The corpus with any persisted entries and coverage map loaded.

        Raises:
            ValueError: when the index is not JSON, not a JSON object, or
                holds an entry or coverage map that does not parse; the
                message names the index path (and the entry position).
        """
        corpus = cls(root=root)
        index_path = os.path.join(root, INDEX_NAME)
        if not os.path.exists(index_path):
            return corpus
        with open(index_path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"{index_path}: not a JSON document ({exc})") from None
        if not isinstance(document, dict):
            raise ValueError(
                f"{index_path}: expected a JSON object, got {type(document).__name__}"
            )
        where = "entries"
        try:
            for position, entry_doc in enumerate(document.get("entries", [])):
                where = f"entry {position}"
                entry = CorpusEntry.from_document(entry_doc)
                corpus.entries[entry.entry_id] = entry
            where = "coverage map"
            corpus.coverage = CoverageMap.from_document(document.get("coverage", {}))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(
                f"{index_path}: {where} does not parse ({type(exc).__name__}: {exc})"
            ) from None
        return corpus

    def save(self) -> None:
        """Write the index document (no-op for in-memory corpora)."""
        if self.root is None:
            return
        os.makedirs(self.root, exist_ok=True)
        document = {
            "version": 1,
            "entries": [entry.as_document() for entry in self.entries.values()],
            "coverage": self.coverage.as_document(),
        }
        index_path = os.path.join(self.root, INDEX_NAME)
        scratch = index_path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(scratch, index_path)

    def entry_path(self, entry: CorpusEntry) -> Optional[str]:
        """The trace-artifact path of an entry (``None`` when in-memory).

        Args:
            entry: the corpus entry.

        Returns:
            The artifact path under ``entries/``, or ``None``.
        """
        if self.root is None:
            return None
        return os.path.join(
            self.root, ENTRIES_DIR, f"{entry.entry_id}.trace.jsonl"
        )

    # ------------------------------------------------------------------
    # Mutation-facing API
    # ------------------------------------------------------------------
    def __contains__(self, identifier: str) -> bool:
        """True when an entry with this id is present."""
        return identifier in self.entries

    def __len__(self) -> int:
        """Number of entries."""
        return len(self.entries)

    def ordered(self) -> List[CorpusEntry]:
        """The entries in insertion order (the fuzzer's mutation pool).

        Returns:
            The entry list, oldest first.
        """
        return list(self.entries.values())

    def add(self, entry: CorpusEntry) -> Optional[str]:
        """Insert an entry; persist its replayable artifact when disk-backed.

        The artifact is produced by re-executing the schedule with a trace
        writer attached (the same mechanism explorer counterexamples use),
        so its bytes are a pure function of (configuration, schedule,
        provenance) — the determinism and round-trip tests pin this.

        Args:
            entry: the entry to insert (no-op if its id is present).

        Returns:
            The persisted artifact path, or ``None`` (in-memory or
            duplicate).

        Raises:
            RuntimeError: when the persistence re-execution unexpectedly
                violates an oracle (corpus entries are violation-free by
                construction).
        """
        if entry.entry_id in self.entries:
            return None
        self.entries[entry.entry_id] = entry
        path = self.entry_path(entry)
        if path is None:
            return None
        os.makedirs(os.path.dirname(path), exist_ok=True)
        outcome = ScheduleExecutor(entry.config).execute(
            entry.schedule,
            trace_path=path,
            trace_meta={"fuzz": {"entry": entry.entry_id, "op": entry.op,
                                 "parent": entry.parent}},
        )
        if outcome.violation is not None:
            raise RuntimeError(
                f"corpus entry {entry.entry_id} violated while persisting: "
                f"{outcome.violation}"
            )
        return path

    def counterexamples_dir(self) -> Optional[str]:
        """The counterexample directory path (``None`` when in-memory).

        Returns:
            ``<root>/counterexamples`` (not created yet), or ``None``.
        """
        if self.root is None:
            return None
        return os.path.join(self.root, COUNTEREXAMPLES_DIR)


@dataclass
class CorpusEntryReplay:
    """Outcome of replaying one persisted corpus entry."""

    path: str
    entry_id: str
    byte_identical: bool
    trace_events: int


def replay_corpus_entry(path: str) -> CorpusEntryReplay:
    """Replay a persisted corpus entry and verify it byte for byte: the
    checks of :func:`repro.explore.shrink.replay_artifact`, with a
    violation-free re-execution expected.

    Args:
        path: the ``entries/<id>.trace.jsonl`` artifact.

    Returns:
        The replay outcome (byte-compare verdict included).

    Raises:
        ValueError: when the artifact carries no explorer/fuzz provenance.
        RuntimeError: when the re-execution violates an oracle.
    """
    replay, meta = replay_artifact(
        path, expect_violation=False, written_by="repro.fuzz"
    )
    identifier = (meta.get("fuzz") or {}).get("entry") or entry_id(
        replay.config, replay.schedule
    )
    return CorpusEntryReplay(
        path=path,
        entry_id=str(identifier),
        byte_identical=replay.byte_identical,
        trace_events=replay.trace_events,
    )


__all__ = [
    "COUNTEREXAMPLES_DIR",
    "Corpus",
    "CorpusEntry",
    "CorpusEntryReplay",
    "ENTRIES_DIR",
    "INDEX_NAME",
    "entry_id",
    "replay_corpus_entry",
]
