"""The six benchmark workloads: closed, fixed-input batch jobs.

Every workload drives the system only through its public entry points with
default knobs (``repro.api.load_spec/run/query``, ``repro.traceio``,
``repro.explore.explore``, ``repro.fuzz.fuzz``), so it measures what a user
gets.  ``--seed`` feeds every spec's seed; the program only ever sees the
generated specs.  Spec loading happens in the constructor (set-up), the
timed stages in :meth:`run`; correctness checks run between the stages and
are not timed.

``scale`` shrinks the input (simulated duration, seeds, execution budgets)
and exists for the reduced warm-up repetition and the smoke test; measured
repetitions always run at scale 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from calibrate import Timing
from repro import api, traceio
from repro.explore import ExploreConfig, explore, ring_program
from repro.fuzz import fuzz


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    #: Units of work completed — the numerator of ``work_per_s``.
    work: int
    #: Stage rate name -> (items, timing); ``work_per_s`` divides ``work``
    #: by the sum of the stages' ``host_s``.
    stages: Dict[str, Tuple[int, Timing]]
    #: Named correctness checks (counted in ``attempted`` / ``failed``).
    checks: List[Tuple[str, bool]]
    #: sha256 over the simulated (host-time-independent) statistics.
    fingerprint: str
    #: Exact, seed-determined counts the ratios are built from.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def timing(self) -> Timing:
        """The timed stages' costs added up."""
        return Timing(*map(sum, zip(*(timing for _, timing in self.stages.values()))))


#: ``HostClock.timed`` for a measured repetition, ``untimed`` for a warm-up.
Timer = Callable[[Callable[[], Any]], Tuple[Timing, Any]]


def _fingerprint(document: Any) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode("utf-8")).hexdigest()


def _simulation_counts(result: Any) -> Dict[str, float]:
    return {
        "messages": result.messages_sent,
        "dropped": result.messages_dropped,
        "checkpoints": result.total_checkpoints,
        "forced": result.forced_checkpoints,
        "collected": result.total_collected,
        "retained_max_per_process": result.max_retained_any_process,
    }


def _simulation_checks(result: Any, *, optimal: bool) -> List[Tuple[str, bool]]:
    checks = [
        ("all_audits_safe", result.all_audits_safe),
        (
            "retained_within_paper_bound",
            result.max_retained_any_process <= result.config.num_processes,
        ),
    ]
    if optimal:
        checks.append(("all_audits_optimal", result.all_audits_optimal))
    return checks


class Steady:
    """A failure-free FDAS + RDT-LGC simulation, audit off, no trace."""

    unit_of_work = "application messages sent"

    def __init__(self, seed: int, scale: float, tmp: str, *, processes: int, duration: float):
        self._spec = api.load_spec(
            {
                "kind": "simulation",
                "num_processes": processes,
                "duration": max(duration * scale, 10.0),
                "seed": seed,
            }
        )

    def run(self, timed: Timer) -> Outcome:
        timing, result = timed(lambda: api.run(self._spec))
        return Outcome(
            work=result.messages_sent,
            stages={"sim_msgs_per_s": (result.messages_sent, timing)},
            checks=_simulation_checks(result, optimal=False),
            fingerprint=_fingerprint(result.metrics_dict()),
            counts=_simulation_counts(result),
        )


class TraceRoundtrip:
    """The ``steady-16p`` execution streamed to a trace, replayed, verified."""

    unit_of_work = "trace records written, replayed and verified"

    def __init__(self, seed: int, scale: float, tmp: str):
        self._path = os.path.join(tmp, f"trace-{scale}.jsonl")
        self._spec = api.load_spec(
            {
                "kind": "simulation",
                "num_processes": 16,
                "duration": max(3000.0 * scale, 10.0),
                "seed": seed,
                "trace": self._path,
            }
        )

    def run(self, timed: Timer) -> Outcome:
        run_timing, result = timed(lambda: api.run(self._spec))
        with open(self._path, "rb") as handle:
            records = sum(1 for _ in handle)
        size = os.path.getsize(self._path)
        replay_timing, replayed = timed(lambda: traceio.TraceReader(self._path).replay())
        verify_timing, violations = timed(lambda: traceio.verify_trace(self._path))
        checks = _simulation_checks(result, optimal=False)
        checks.append(("verify_trace_clean", violations == []))
        checks.append(("replayed_metrics_equal_run", replayed.metrics == result.metrics_dict()))
        counts = _simulation_counts(result)
        counts.update(trace_records=records, trace_bytes=size)
        return Outcome(
            work=records,
            stages={
                "sim_msgs_per_s": (result.messages_sent, run_timing),
                "replay_records_per_s": (records, replay_timing),
                "verify_records_per_s": (records, verify_timing),
            },
            checks=checks,
            fingerprint=_fingerprint(result.metrics_dict()),
            counts=counts,
        )


class ChurnAudit:
    """Crash churn with the full Theorem-1/2 audit after every recovery.

    The crash times are drawn here, one per equal slice of the run after a
    20 % warm-up, and passed as explicit ``[time, pid]`` pairs.  The spec's
    own ``{"model": "churn"}`` draws a Poisson number of crashes (32 to 51
    over ten seeds at this size) whose cost grows with how late they fall,
    which alone spread sessions per second by 13 % from seed to seed;
    one crash per slice keeps the session count and the history they
    analyse the same for every seed (7 %, single repetitions).
    """

    unit_of_work = "recovery sessions (crash, recovery line, rollback, audit)"

    def __init__(self, seed: int, scale: float, tmp: str):
        duration = max(300.0 * scale, 10.0)
        sessions = max(2, round(40 * scale))
        rng = random.Random(seed)
        warm_up = 0.2 * duration
        slice_length = (duration - warm_up) / sessions
        self._spec = api.load_spec(
            {
                "kind": "simulation",
                "num_processes": 8,
                "duration": duration,
                "seed": seed,
                "audit": "full",
                "failures": [
                    [warm_up + (index + rng.random()) * slice_length, rng.randrange(8)]
                    for index in range(sessions)
                ],
            }
        )

    def run(self, timed: Timer) -> Outcome:
        timing, result = timed(lambda: api.run(self._spec))
        sessions = len(result.recoveries)
        counts = _simulation_counts(result)
        counts["recovery_sessions"] = sessions
        return Outcome(
            work=sessions,
            stages={"recovery_sessions_per_s": (sessions, timing)},
            checks=_simulation_checks(result, optimal=True),
            fingerprint=_fingerprint(result.metrics_dict()),
            counts=counts,
        )


class CampaignSql:
    """A grid of tiny cells through the SQL result store, then the aggregate."""

    unit_of_work = "campaign cells executed, stored and aggregated"

    def __init__(self, seed: int, scale: float, tmp: str):
        self._store = os.path.join(tmp, "store.sqlite")
        seeds = max(1, round(10 * scale))
        self._cells = 2 * 3 * 2 * 2 * seeds
        self._spec = api.load_spec(
            {
                "kind": "campaign",
                "name": "e2e-campaign-sql",
                "num_processes": 4,
                "duration": 60,
                "protocols": ["fdas", "fdi"],
                "collectors": ["rdt-lgc", "none", "wang-coordinated"],
                "workloads": ["uniform-random", "client-server"],
                "failure_counts": [0, 1],
                "seeds": seeds,
                "base_seed": seed,
            }
        )

    def run(self, timed: Timer) -> Outcome:
        timing, (run, summary) = timed(
            lambda: (
                api.run(self._spec, store=self._store, workers=1),
                api.query(self._store),
            )
        )
        # A fresh store per repetition: a warm one would short-circuit the run.
        os.remove(self._store)
        ok = sum(1 for record in run.records if record.get("status") == "ok")
        totals = {
            key: sum(record["metrics"][key] for record in run.records if "metrics" in record)
            for key in ("messages", "checkpoints", "forced", "collected")
        }
        return Outcome(
            work=run.cell_count,
            stages={"cells_per_s": (run.cell_count, timing)},
            checks=[
                ("every_cell_executed", run.executed == self._cells),
                ("every_cell_ok", ok == self._cells and not run.failed_records),
            ],
            fingerprint=_fingerprint(json.loads(summary.to_json())),
            counts={
                "cells": run.cell_count,
                "retained_max_per_process": max(
                    record["metrics"]["max_per_process"] for record in run.records
                ),
                **totals,
            },
        )


class ScheduleSearch:
    """Thousands of very short executions: the explorer, then the fuzzer."""

    unit_of_work = "schedule executions (explorer + fuzzer)"

    def __init__(self, seed: int, scale: float, tmp: str):
        self._corpus = os.path.join(tmp, "corpus")
        self._seed = seed
        self._explore_budget = max(20, round(1500 * scale))
        self._fuzz_budget = max(20, round(250 * scale))
        self._config = ExploreConfig(2, ring_program(2, 5), seed=seed)

    def run(self, timed: Timer) -> Outcome:
        explore_timing, explored = timed(
            lambda: explore(self._config, max_executions=self._explore_budget)
        )
        fuzz_timing, fuzzed = timed(
            lambda: fuzz(
                "gossip",
                budget=self._fuzz_budget,
                seed=self._seed,
                minimize=False,
                explorer_seed_executions=0,
                corpus=self._corpus,
            )
        )
        # A fresh corpus per repetition: a warm one would change the search.
        shutil.rmtree(self._corpus)
        explore_stats, fuzz_stats = explored.stats, fuzzed.stats
        return Outcome(
            work=explore_stats.executions + fuzz_stats.executions,
            stages={
                "explore_execs_per_s": (explore_stats.executions, explore_timing),
                "fuzz_execs_per_s": (fuzz_stats.executions, fuzz_timing),
            },
            checks=[("explore_ok", explored.ok), ("fuzz_ok", fuzzed.ok)],
            fingerprint=_fingerprint(
                {"explore": explore_stats.as_dict(), "fuzz": fuzz_stats.as_dict()}
            ),
            counts={
                "explore_executions": explore_stats.executions,
                "sleep_pruned": explore_stats.sleep_pruned,
                "fuzz_executions": fuzz_stats.executions,
                "corpus_entries": len(fuzzed.corpus),
            },
        )


#: name -> factory(seed, scale, tmp); the names are stable, later issues cite them.
WORKLOADS: Dict[str, Callable[[int, float, str], Any]] = {
    "steady-16p": lambda seed, scale, tmp: Steady(
        seed, scale, tmp, processes=16, duration=3000.0
    ),
    "steady-64p": lambda seed, scale, tmp: Steady(seed, scale, tmp, processes=64, duration=600.0),
    "trace-roundtrip-16p": TraceRoundtrip,
    "churn-audit-8p": ChurnAudit,
    "campaign-sql-240c": CampaignSql,
    "schedule-search": ScheduleSearch,
}
