"""Corpus persistence tests: content addressing, round-trips, error paths."""

from __future__ import annotations

import hashlib
import json

import os

import pytest

from repro.explore import ExploreConfig, ScheduleExecutor, StepKind, ring_program
from repro.fuzz import (
    Corpus,
    CorpusEntry,
    eager_schedule,
    entry_id,
    lazy_schedule,
    replay_corpus_entry,
    state_features,
)


def _config():
    return ExploreConfig(num_processes=2, program=ring_program(2, 4))


def _entry(config, schedule, **overrides):
    captured = []
    outcome = ScheduleExecutor(config).execute(
        schedule, state_probe=captured.append
    )
    assert outcome.violation is None
    features = tuple(sorted(state_features(captured[0]), key=repr))
    fields = dict(
        entry_id=entry_id(config, schedule),
        config=config,
        schedule=tuple(schedule),
        features=features,
    )
    fields.update(overrides)
    return CorpusEntry(**fields)


class TestEntryId:
    def test_stable_across_calls_and_tuple_vs_list(self):
        config = _config()
        schedule = eager_schedule(config)
        assert entry_id(config, schedule) == entry_id(config, list(schedule))
        assert len(entry_id(config, schedule)) == 16

    def test_distinguishes_schedule_and_config(self):
        config = _config()
        other = ExploreConfig(
            num_processes=2, program=ring_program(2, 4, crash_pid=0)
        )
        assert entry_id(config, eager_schedule(config)) != entry_id(
            config, lazy_schedule(config)
        )
        assert entry_id(config, eager_schedule(config)) != entry_id(
            other, eager_schedule(other)
        )

    def test_known_construction(self):
        # Pin the hash construction: canonical JSON of config + schedule.
        config = _config()
        schedule = eager_schedule(config)
        canonical = json.dumps(
            {
                "config": config.describe(),
                "schedule": [list(token) for token in schedule],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        assert entry_id(config, schedule) == expected


class TestCorpusAdd:
    def test_add_persists_artifact_and_save_round_trips(self, tmp_path):
        config = _config()
        corpus = Corpus(root=str(tmp_path / "c"))
        entry = _entry(config, eager_schedule(config))
        path = corpus.add(entry)
        corpus.save()
        assert path == corpus.entry_path(entry)
        assert os.path.exists(path)
        loaded = Corpus.load(str(tmp_path / "c"))
        assert set(loaded.entries) == {entry.entry_id}
        assert loaded.entries[entry.entry_id] == entry

    def test_re_adding_same_input_is_a_noop(self, tmp_path):
        config = _config()
        corpus = Corpus(root=str(tmp_path / "c"))
        entry = _entry(config, eager_schedule(config))
        corpus.add(entry)
        before = open(corpus.entry_path(entry), "rb").read()
        assert corpus.add(entry) is None
        assert len(corpus) == 1
        assert open(corpus.entry_path(entry), "rb").read() == before

    def test_in_memory_corpus_skips_disk(self):
        config = _config()
        corpus = Corpus(root=None)
        entry = _entry(config, eager_schedule(config))
        assert corpus.add(entry) is None
        assert len(corpus) == 1
        assert corpus.entry_path(entry) is None
        assert corpus.counterexamples_dir() is None
        corpus.save()  # no-op without a root

    def test_adding_a_violating_schedule_is_an_error(self, tmp_path):
        crash = ExploreConfig(
            num_processes=2, program=ring_program(2, 4, crash_pid=0)
        )
        # Deliver every message after the crash: recovery has discarded the
        # in-flight ones, so execution rejects the schedule.
        crash_step = next(
            i for i, s in enumerate(crash.program) if s.kind is StepKind.CRASH
        )
        deliveries = [t for t in lazy_schedule(crash) if t[0] == "d"]
        bad = tuple(
            [("a", i) for i in range(crash_step + 1)]
            + deliveries
            + [("a", i) for i in range(crash_step + 1, len(crash.program))]
        )
        outcome = ScheduleExecutor(crash).execute(bad)
        if outcome.violation is None:
            pytest.skip("schedule unexpectedly clean under this custody model")
        corpus = Corpus(root=str(tmp_path / "c"))
        entry = CorpusEntry(
            entry_id=entry_id(crash, bad), config=crash, schedule=bad, features=()
        )
        with pytest.raises(RuntimeError, match="violated while persisting"):
            corpus.add(entry)


class TestGarbledIndex:
    """A broken ``index.json`` is a ``ValueError`` naming the file and entry."""

    def _load(self, tmp_path, text):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "index.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            Corpus.load(str(root))
        message = str(raised.value)
        assert str(root / "index.json") in message
        return message

    def test_truncated_json(self, tmp_path):
        assert "not a JSON document" in self._load(tmp_path, '{"entries": [\n')

    def test_entry_without_config(self, tmp_path):
        good = _entry(_config(), eager_schedule(_config())).as_document()
        message = self._load(
            tmp_path, json.dumps({"entries": [good, {"id": "x"}]})
        )
        assert "entry 1" in message and "'config'" in message

    def test_non_object_document(self, tmp_path):
        assert "expected a JSON object, got list" in self._load(tmp_path, "[1, 2]")

    def test_garbled_coverage_map(self, tmp_path):
        message = self._load(tmp_path, json.dumps({"coverage": {"features": 3}}))
        assert "coverage map" in message


class TestReplayErrors:
    def test_replaying_a_trace_without_provenance_is_a_value_error(self, tmp_path):
        config = _config()
        path = str(tmp_path / "bare.trace.jsonl")
        ScheduleExecutor(config).execute(eager_schedule(config), trace_path=path)
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["meta"] = {}
        lines[0] = json.dumps(header, separators=(",", ":"))
        stripped = str(tmp_path / "stripped.trace.jsonl")
        with open(stripped, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="provenance"):
            replay_corpus_entry(stripped)

    def test_replaying_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            replay_corpus_entry(str(tmp_path / "absent.trace.jsonl"))
