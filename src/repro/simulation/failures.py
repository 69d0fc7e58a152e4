"""Crash schedules for failure injection.

The paper's model: a process can fail by crash, losing its volatile state but
keeping its stable storage, and it eventually recovers.  A
:class:`FailureSchedule` lists the crashes to inject in a run; each crash
triggers a full recovery session orchestrated by the runner via the
centralized :class:`repro.recovery.RecoveryManager`.

Two schedule generators are provided: :meth:`FailureSchedule.random` draws a
fixed *count* of crashes (the paper's evaluation regime), and
:meth:`FailureSchedule.churn` models crash-recovery *churn* — every process
crashes and rejoins repeatedly, with exponential inter-crash times governed
by a hazard rate.  :class:`FailureModelSpec` is the declarative form of
either generator, used by the campaign layer to put failure models on a
grid axis (hashable, picklable, hashed into the cell identity).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.validation import check_choice, check_keys


@dataclass(frozen=True, order=True)
class Crash:
    """A single injected failure."""

    time: float
    pid: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError(
                f"the crash time of process {self.pid} must be finite, got {self.time!r}"
            )


@dataclass(frozen=True)
class FailureSchedule:
    """An ordered list of crashes to inject."""

    crashes: Tuple[Crash, ...] = ()

    @classmethod
    def none(cls) -> "FailureSchedule":
        """A schedule with no failures."""
        return cls(())

    @classmethod
    def of(cls, crashes: Iterable[Tuple[float, int]]) -> "FailureSchedule":
        """Build a schedule from ``(time, pid)`` pairs."""
        return cls(tuple(sorted(Crash(time, pid) for time, pid in crashes)))

    @classmethod
    def random(
        cls,
        *,
        num_processes: int,
        duration: float,
        count: int,
        rng: random.Random,
        warmup_fraction: float = 0.2,
    ) -> "FailureSchedule":
        """``count`` crashes of random processes at random times after a warm-up.

        Crash times are drawn from the half-open ``[start, duration)``:
        workloads generate actions strictly before ``duration``, and a crash
        at the very instant the run ends would trigger a recovery session
        that no subsequent execution can observe — so schedules follow the
        same end-exclusive convention.  ``rng.uniform(start, duration)`` can
        return exactly ``duration`` (the nominal interval is closed), so
        boundary draws, and duplicate ``(time, pid)`` draws — the same
        process cannot crash twice at the same instant — are rejected and
        redrawn.
        """
        if count < 0:
            raise ValueError("the number of crashes must be non-negative")
        if not 0 < duration < math.inf:
            raise ValueError(f"the duration must be positive and finite, got {duration!r}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("the warm-up fraction must be in [0, 1)")
        start = duration * warmup_fraction
        crashes: List[Crash] = []
        seen = set()
        attempts = 0
        max_attempts = 1000 + 100 * count
        while len(crashes) < count:
            attempts += 1
            if attempts > max_attempts:
                raise RuntimeError(
                    f"could not draw {count} distinct crashes in "
                    f"[{start}, {duration}) after {max_attempts} attempts"
                )
            time = rng.uniform(start, duration)
            pid = rng.randrange(num_processes)
            if time >= duration or (time, pid) in seen:
                continue
            seen.add((time, pid))
            crashes.append(Crash(time, pid))
        return cls(tuple(sorted(crashes)))

    @classmethod
    def churn(
        cls,
        *,
        num_processes: int,
        duration: float,
        rng: random.Random,
        hazard_rate: float,
        warmup_fraction: float = 0.2,
        min_gap: float = 0.0,
    ) -> "FailureSchedule":
        """Crash-recovery churn: every process crashes and rejoins repeatedly.

        After a warm-up, each process independently draws exponential
        inter-crash times with rate ``hazard_rate`` (mean time between
        crashes ``1 / hazard_rate``); every crash triggers a full recovery
        session after which the process rejoins, so a long run sees each
        process fail many times.  ``min_gap`` enforces a minimum spacing
        between one process's consecutive crashes (a refractory period, so
        an unlucky draw cannot produce a pathological storm of back-to-back
        recoveries).  Crash times follow the same end-exclusive
        ``[start, duration)`` convention as :meth:`random`.
        """
        if hazard_rate <= 0:
            raise ValueError("the hazard rate must be positive")
        if not 0 < duration < math.inf:
            raise ValueError(f"the duration must be positive and finite, got {duration!r}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("the warm-up fraction must be in [0, 1)")
        if min_gap < 0:
            raise ValueError("the minimum gap must be non-negative")
        start = duration * warmup_fraction
        crashes: List[Crash] = []
        for pid in range(num_processes):
            time = start + rng.expovariate(hazard_rate)
            while time < duration:
                crashes.append(Crash(time, pid))
                time += min_gap + rng.expovariate(hazard_rate)
        return cls(tuple(sorted(crashes)))

    def __len__(self) -> int:
        return len(self.crashes)

    def __iter__(self) -> Iterator[Crash]:
        return iter(self.crashes)


# ----------------------------------------------------------------------
# Declarative failure models (campaign grid axes)
# ----------------------------------------------------------------------

#: Known model names and the parameters (with defaults) each one accepts.
FAILURE_MODELS: Dict[str, Dict[str, Any]] = {
    "crashes": {"count": 0, "warmup_fraction": 0.2},
    "churn": {"hazard_rate": 0.05, "warmup_fraction": 0.2, "min_gap": 0.0},
}


@dataclass(frozen=True)
class FailureModelSpec:
    """A failure model by name plus its parameters, in declarative form.

    Frozen and tuple-based for the same reason campaign collector/workload
    specs are: cells carrying one must stay hashable and picklable, and the
    canonical :meth:`label` is what gets hashed into the cell identity.
    """

    model: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls, model: str, params: Optional[Mapping[str, Any]] = None
    ) -> "FailureModelSpec":
        """Build and validate a spec (unknown models/parameters fail fast)."""
        check_choice("model", model, sorted(FAILURE_MODELS))
        merged = dict(params or {})
        check_keys(merged, FAILURE_MODELS[model], f"{model} failure model parameter")
        spec = cls(model, tuple(sorted(merged.items())))
        # Fail fast on bad values, not per cell mid-sweep: generating a tiny
        # schedule exercises every parameter check.
        spec.schedule(num_processes=2, duration=10.0, rng=random.Random(0))
        return spec

    def params_dict(self) -> Dict[str, Any]:
        """The explicit parameters as a plain dict."""
        return dict(self.params)

    def label(self) -> str:
        """Canonical compact form, e.g. ``churn(hazard_rate=0.05)``.

        Used as the cell parameter value (hashed into ``cell_id``) and as
        the aggregation group key, so it must be deterministic: parameters
        render sorted by name, defaults omitted only if never given.
        """
        rendered = ",".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.model}({rendered})"

    def schedule(
        self, *, num_processes: int, duration: float, rng: random.Random
    ) -> FailureSchedule:
        """Materialise the spec into a concrete :class:`FailureSchedule`."""
        params = self.params_dict()
        if self.model == "crashes":
            count = int(params.pop("count", 0))
            if not count:
                return FailureSchedule.none()
            return FailureSchedule.random(
                num_processes=num_processes,
                duration=duration,
                count=count,
                rng=rng,
                **params,
            )
        assert self.model == "churn"
        return FailureSchedule.churn(
            num_processes=num_processes, duration=duration, rng=rng, **params
        )
