"""Shared fixtures: the paper's figures as CCPs, and the literal cross-check."""

from __future__ import annotations

import os

import pytest

from repro.ccp.pattern import CCP
from repro.core.obsolete import _is_retained_theorem1, _is_retained_theorem2
from repro.explore.executor import ScheduleExecutor
from repro.recovery.recovery_line import _recovery_line_lemma1
from repro.simulation.trace import TraceRecorder, TraceSink
from repro.scenarios.figures import figure1_ccp as _figure1_ccp
from repro.scenarios.figures import figure2_ccp as _figure2_ccp
from repro.scenarios.figures import figure3_ccp as _figure3_ccp
from repro.scenarios.figures import figure4_ccp as _figure4_ccp


@pytest.fixture
def figure1_ccp() -> CCP:
    return _figure1_ccp()


@pytest.fixture
def figure1_without_m3_ccp() -> CCP:
    return _figure1_ccp(include_m3=False)


@pytest.fixture
def figure2_ccp() -> CCP:
    return _figure2_ccp()


@pytest.fixture
def figure3_ccp() -> CCP:
    return _figure3_ccp()


@pytest.fixture
def figure4_ccp() -> CCP:
    return _figure4_ccp()


def _assert_view_matches_literal(source) -> None:
    """Diff a recorder's knowledge-vector analyses against the literal theorems.

    ``source`` is a recorder or a CCP one handed out.  The reference is the
    per-checkpoint transcription of Theorems 1/2 (``repro.core.obsolete``)
    and of Lemma 1 (``_recovery_line_lemma1``) over the same pattern, which
    answer by vector-clock replay and pairwise ``causally_precedes``.
    """
    ccp = source.ccp() if isinstance(source, TraceRecorder) else source
    view = ccp.analyses
    stable = [cid for pid in ccp.processes for cid in ccp.stable_ids(pid)]
    assert view.theorem1_retained == {cid for cid in stable if _is_retained_theorem1(ccp, cid)}
    assert view.theorem2_retained == {cid for cid in stable if _is_retained_theorem2(ccp, cid)}
    for pid in ccp.active_processes:
        if ccp.last_stable(pid) >= 0:  # only a process with a checkpoint can fail
            assert view.recovery_line({pid}) == _recovery_line_lemma1(ccp, {pid}), f"F={{{pid}}}"


@pytest.fixture(scope="session")
def assert_view_matches_literal():
    """The view-versus-literal cross-assertion, as a callable taking a
    recorder or a CCP."""
    return _assert_view_matches_literal


class LiteralCheckSink(TraceSink):
    """Checks a recorder against the literal theorems right after every
    recovery session and membership change — the states where the view reuses
    checkpoint indices, has just been truncated, or has just gained or lost a
    process."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        self.checked = 0
        recorder.attach_sink(self)

    def _check(self, *_args) -> None:
        _assert_view_matches_literal(self.recorder)
        self.checked += 1

    on_recovery = on_join = on_leave = _check


@pytest.fixture(scope="session")
def literal_check_sink():
    """Factory attaching a :class:`LiteralCheckSink` to a recorder."""
    return LiteralCheckSink


@pytest.fixture
def legacy_store_file(tmp_path) -> str:
    """A ``--store`` path that exists and is not SQLite: an old JSONL store, renamed."""
    path = tmp_path / "legacy.sqlite"
    path.write_text('{"cell_id": "abc", "params": {}, "metrics": {}}\n' * 40)
    return str(path)


@pytest.fixture
def sidecars():
    """``sidecars(path)``: the ``-wal``/``-shm`` files beside an *open* WAL store."""

    def present(path) -> list:
        return [suffix for suffix in ("-wal", "-shm") if os.path.exists(str(path) + suffix)]

    return present


def _replaying_explore(
    config,
    *,
    max_executions=None,
    reduction=True,
    max_counterexamples=1,
):
    """The explorer's walk with every search node replayed on a fresh run.

    Same canonical order, sleep sets, budget, frontier and counterexample
    rule as :func:`repro.explore.explorer.explore`, but each node calls
    ``executor.execute(prefix, check_from=len(prefix) - 1)`` instead of
    extending its parent's live run: the reference the hand-off must equal.
    """
    from repro.explore.executor import ScheduleExecutor
    from repro.explore.explorer import Counterexample, ExplorationResult, _Independence
    from repro.explore.program import ScheduleStats

    executor = ScheduleExecutor(config)
    independence = _Independence(config)
    result = ExplorationResult(config=config, stats=ScheduleStats())
    stats = result.stats
    seen_affected = {}

    def dfs(prefix, sleep):
        if max_executions is not None and stats.executions >= max_executions:
            stats.complete = False
            stats.frontier = prefix
            return False
        outcome = executor.execute(prefix, check_from=max(len(prefix) - 1, 0))
        stats.executions += 1
        stats.deepest = max(stats.deepest, len(prefix))
        seen_affected.update(outcome.affected)
        if outcome.violation is not None:
            stats.violations += 1
            result.counterexamples.append(
                Counterexample(config, prefix[: outcome.executed], outcome.violation)
            )
            return len(result.counterexamples) < max_counterexamples
        if outcome.terminal:
            stats.schedules += 1
            return True
        explored = []
        for choice in outcome.enabled:
            if choice in sleep:
                stats.sleep_pruned += 1
                continue
            child_sleep = frozenset(
                other
                for other in sleep.union(explored)
                if reduction and independence.independent(other, choice, seen_affected)
            )
            if not dfs(prefix + (choice,), child_sleep):
                return False
            explored.append(choice)
        return True

    dfs((), frozenset())
    return result


@pytest.fixture(scope="session")
def replaying_explore():
    """``replaying_explore(config, **explore_options)``: the reference walk
    that replays every search node from scratch (see :func:`_replaying_explore`)."""
    return _replaying_explore


#: The executor's own ``execute``, captured before any test patches it.
_EXECUTE = ScheduleExecutor.execute


def _full_audit_execute(self, schedule, *, check_from=0, **options):
    """``ScheduleExecutor.execute`` auditing every state whatever ``check_from``
    says: the reference a caller's audit skipping must be invisible against."""
    return _EXECUTE(self, schedule, check_from=0, **options)


@pytest.fixture(scope="session")
def full_audit_execute():
    """A drop-in ``ScheduleExecutor.execute`` that ignores ``check_from`` (see
    :func:`_full_audit_execute`); monkeypatch it onto the class."""
    return _full_audit_execute


def _state_audit_check_events(self, runner, step, eliminated, changed):
    """``OracleStack.check_events`` answering with the whole-state CCP audit
    of every token: the reference the event audit must be invisible against."""
    return self.check_state(runner, step)


@pytest.fixture(scope="session")
def state_audit_check_events():
    """A drop-in ``OracleStack.check_events`` that audits the whole state (see
    :func:`_state_audit_check_events`); monkeypatch it onto the class."""
    return _state_audit_check_events
