"""``repro.api`` — the one-stop programmatic façade of the repro toolkit.

Three verbs cover the project's surface without touching subsystem modules::

    from repro import api

    spec = api.load_spec("sweep.json")            # or a dict, or a built object
    run = api.run(spec, store="sweep.sqlite")     # campaign -> CampaignRun
    rows = api.query("sweep.sqlite", "retained-winner")

:func:`load_spec` turns a JSON file or mapping into the matching typed
configuration — a :class:`~repro.scenarios.campaign.spec.CampaignSpec`, a
:class:`~repro.simulation.SimulationConfig` (simulated or live), an
:class:`~repro.explore.ExploreConfig` or a :class:`~repro.fuzz.FuzzSpec` —
inferring the kind from the document's shape (an explicit ``"kind"`` key
wins).  :func:`run` executes any of them; :func:`query` answers questions
over a result store.

Validation is front-loaded and precise: a bad document raises
:class:`SpecValidationError` naming the offending field and, where the set
is enumerable, the accepted values — *before* anything expensive runs.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.explore.program import ExploreConfig, ProgramStep, checkpoint, crash, send
from repro.fuzz.fuzzer import FuzzSpec, builtin_targets, resolve_target
from repro.gc import available_collectors
from repro.protocols import available_protocols
from repro.scenarios.campaign.executor import CampaignRun, run_campaign
from repro.scenarios.campaign.spec import (
    CampaignSpec,
    FailureModelSpec,
    spec_from_mapping,
)
from repro.simulation import (
    FailureSchedule,
    SimulationConfig,
    SimulationResult,
    SimulationRunner,
    available_workloads,
    make_workload,
    network_config_from_mapping,
)

#: The closed vocabularies of the non-registry fields.
_AUDITS = ("off", "safety", "full")
_BACKENDS = ("sim", "live")
_KINDS = ("campaign", "simulation", "explore", "live", "fuzz")
_STEP_OPS = ("send", "checkpoint", "crash")

AnySpec = Union[CampaignSpec, SimulationConfig, ExploreConfig, "FuzzSpec"]


class SpecValidationError(ValueError):
    """A specification document failed validation.

    ``field`` names the offending entry; ``accepted`` (when the domain is
    enumerable) lists the values that would have been valid.  The rendered
    message carries both, so the exception is actionable even when only its
    string surfaces (CLI wrappers, logs).
    """

    def __init__(
        self,
        field: str,
        message: str,
        *,
        accepted: Optional[Sequence[Any]] = None,
    ) -> None:
        """Record ``field``/``accepted`` and render the combined message."""
        self.field = field
        self.accepted = list(accepted) if accepted is not None else None
        rendered = f"{field}: {message}"
        if self.accepted is not None:
            rendered += f" (accepted: {', '.join(str(a) for a in self.accepted)})"
        super().__init__(rendered)


def _check_choice(field: str, value: Any, accepted: Sequence[Any]) -> None:
    if value not in accepted:
        raise SpecValidationError(
            field, f"unknown value {value!r}", accepted=accepted
        )


def _entry_name(entry: Any) -> Any:
    """An axis entry's registry name — bare string or a ``{"name": ...}``."""
    if isinstance(entry, Mapping):
        return entry.get("name")
    return entry


def _validate_campaign_names(document: Mapping[str, Any]) -> None:
    """Check every registry-backed axis entry before the spec layer runs.

    The spec layer validates structure; this pass validates *vocabulary*, so
    a typoed collector fails with the accepted list instead of a deep
    factory error mid-expansion.
    """
    registries: Tuple[Tuple[str, Sequence[str]], ...] = (
        ("protocols", available_protocols()),
        ("collectors", available_collectors()),
        ("workloads", available_workloads()),
        ("backends", _BACKENDS),
    )
    for field, accepted in registries:
        entries = document.get(field)
        if entries is None or isinstance(entries, (str, bytes)):
            continue  # shape errors are the spec layer's to report
        for index, entry in enumerate(entries):
            name = _entry_name(entry)
            if isinstance(name, str) and name not in accepted:
                raise SpecValidationError(
                    f"{field}[{index}]",
                    f"unknown value {name!r}",
                    accepted=accepted,
                )
    if "audit" in document:
        _check_choice("audit", document["audit"], _AUDITS)


def _campaign_spec(document: Mapping[str, Any]) -> CampaignSpec:
    _validate_campaign_names(document)
    if "name" not in document:
        raise SpecValidationError("name", "a campaign spec needs a name")
    try:
        return spec_from_mapping(document)
    except SpecValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError("spec", str(exc)) from exc


def _failure_schedule(
    value: Any, *, num_processes: int, duration: float, seed: int
) -> FailureSchedule:
    """A single run's ``failures`` entry: count, ``[time, pid]`` pairs or a
    declarative failure model (``{"model": "churn", ...}``)."""
    if value is None:
        return FailureSchedule.none()
    if isinstance(value, Mapping):
        params = dict(value)
        model = params.pop("model", None)
        if model is None:
            raise SpecValidationError(
                "failures", "a failure-model mapping needs a 'model' key"
            )
        try:
            return FailureModelSpec.of(str(model), params).schedule(
                num_processes=num_processes,
                duration=duration,
                rng=random.Random(seed),
            )
        except (TypeError, ValueError) as exc:
            raise SpecValidationError("failures", str(exc)) from exc
    if isinstance(value, int):
        if value == 0:
            return FailureSchedule.none()
        return FailureSchedule.random(
            num_processes=num_processes,
            duration=duration,
            count=value,
            rng=random.Random(seed),
        )
    try:
        return FailureSchedule.of((float(t), int(pid)) for t, pid in value)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(
            "failures",
            f"expected a crash count, [time, pid] pairs or a failure model, "
            f"got {value!r} ({exc})",
        ) from exc


def _simulation_config(
    document: Mapping[str, Any], *, backend: Optional[str] = None
) -> SimulationConfig:
    known = {
        "name", "num_processes", "duration", "workload", "protocol",
        "collector", "collector_options", "network", "failures", "seed",
        "sample_interval", "audit", "backend", "trace",
    }
    unknown = sorted(set(document) - known)
    if unknown:
        raise SpecValidationError(
            unknown[0], "unknown simulation spec key", accepted=sorted(known)
        )

    workload_entry = document.get("workload", "uniform-random")
    workload_name = _entry_name(workload_entry)
    workload_params: Mapping[str, Any] = (
        workload_entry.get("params", {}) if isinstance(workload_entry, Mapping) else {}
    )
    _check_choice("workload", workload_name, available_workloads())
    _check_choice("protocol", document.get("protocol", "fdas"), available_protocols())
    _check_choice("collector", document.get("collector", "rdt-lgc"), available_collectors())
    _check_choice("audit", document.get("audit", "off"), _AUDITS)
    resolved_backend = backend or document.get("backend", "sim")
    _check_choice("backend", resolved_backend, _BACKENDS)

    num_processes = int(document.get("num_processes", 4))
    duration = float(document.get("duration", 120.0))
    seed = int(document.get("seed", 0))
    try:
        network = network_config_from_mapping(dict(document.get("network", {})))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError("network", str(exc)) from exc
    try:
        return SimulationConfig(
            num_processes=num_processes,
            duration=duration,
            workload=make_workload(workload_name, **dict(workload_params)),
            protocol=document.get("protocol", "fdas"),
            collector=document.get("collector", "rdt-lgc"),
            collector_options=dict(document.get("collector_options", {})),
            network=network,
            failures=_failure_schedule(
                document.get("failures"),
                num_processes=num_processes,
                duration=duration,
                seed=seed,
            ),
            seed=seed,
            sample_interval=document.get("sample_interval"),
            audit=document.get("audit", "off"),
            trace_path=document.get("trace"),
            backend=resolved_backend,
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("spec", str(exc)) from exc


def _program_step(entry: Any, index: int) -> ProgramStep:
    if not isinstance(entry, Mapping):
        raise SpecValidationError(
            f"program[{index}]",
            f"expected a mapping like {{'op': 'send', 'pid': 0, 'target': 1}}, "
            f"got {entry!r}",
        )
    op = entry.get("op")
    _check_choice(f"program[{index}].op", op, _STEP_OPS)
    pid = entry.get("pid")
    if not isinstance(pid, int):
        raise SpecValidationError(f"program[{index}].pid", "an integer pid is required")
    if op == "send":
        target = entry.get("target")
        if not isinstance(target, int):
            raise SpecValidationError(
                f"program[{index}].target", "send steps need an integer target"
            )
        return send(pid, target)
    if op == "checkpoint":
        return checkpoint(pid)
    return crash(pid)


def _explore_config(document: Mapping[str, Any]) -> ExploreConfig:
    known = {
        "name", "num_processes", "program", "protocol", "collector",
        "collector_options", "seed", "step_gap",
    }
    unknown = sorted(set(document) - known)
    if unknown:
        raise SpecValidationError(
            unknown[0], "unknown explore spec key", accepted=sorted(known)
        )
    _check_choice("protocol", document.get("protocol", "fdas"), available_protocols())
    _check_choice("collector", document.get("collector", "rdt-lgc"), available_collectors())
    program_entries = document.get("program")
    if not isinstance(program_entries, Sequence) or isinstance(program_entries, (str, bytes)):
        raise SpecValidationError(
            "program", "an explore spec needs a list of program steps"
        )
    program = tuple(
        _program_step(entry, index) for index, entry in enumerate(program_entries)
    )
    options = document.get("collector_options", {})
    try:
        return ExploreConfig(
            num_processes=int(document.get("num_processes", 2)),
            program=program,
            protocol=document.get("protocol", "fdas"),
            collector=document.get("collector", "rdt-lgc"),
            collector_options=tuple(sorted(dict(options).items())),
            seed=int(document.get("seed", 0)),
            step_gap=float(document.get("step_gap", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("spec", str(exc)) from exc


def _fuzz_spec(document: Mapping[str, Any]) -> FuzzSpec:
    """A fuzz campaign: a built-in ``target`` name *or* an inline program.

    ``{"kind": "fuzz", "target": "ring", "budget": 500}`` fuzzes a built-in
    target; an explore-shaped document (``program``, ``collector``, ...)
    plus the fuzz knobs fuzzes that custom configuration.
    """
    fuzz_keys = {"target", "budget", "seed", "corpus", "guided", "minimize"}
    explore_keys = {
        "name", "num_processes", "program", "protocol", "collector",
        "collector_options", "step_gap",
    }
    unknown = sorted(set(document) - fuzz_keys - explore_keys)
    if unknown:
        raise SpecValidationError(
            unknown[0],
            "unknown fuzz spec key",
            accepted=sorted(fuzz_keys | explore_keys),
        )
    target_name = document.get("target")
    if target_name is not None and "program" in document:
        raise SpecValidationError(
            "target", "give either a built-in target or an inline program, not both"
        )
    if target_name is not None:
        targets = builtin_targets()
        _check_choice("target", target_name, sorted(targets))
        target = targets[target_name]
    elif "program" in document:
        explore_doc = {
            key: value for key, value in document.items() if key in explore_keys
        }
        # The fuzzer's own seed is a mutation-stream seed, not the
        # simulation seed; the embedded configuration keeps the default.
        target = resolve_target(_explore_config(explore_doc))
    else:
        raise SpecValidationError(
            "target", "a fuzz spec needs a built-in target or an inline program"
        )
    try:
        return FuzzSpec(
            target=target,
            budget=int(document.get("budget", 300)),
            seed=int(document.get("seed", 0)),
            corpus=document.get("corpus"),
            guided=bool(document.get("guided", True)),
            minimize=bool(document.get("minimize", True)),
        )
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("spec", str(exc)) from exc


_CAMPAIGN_AXES = frozenset(
    {"protocols", "collectors", "workloads", "failure_counts", "networks",
     "seeds", "backends", "base_seed"}
)


def _infer_kind(document: Mapping[str, Any]) -> str:
    if _CAMPAIGN_AXES & set(document):
        return "campaign"
    if "target" in document or "budget" in document:
        return "fuzz"
    if "program" in document:
        return "explore"
    return "simulation"


def load_spec(
    source: Union[str, Mapping[str, Any], AnySpec], *, kind: Optional[str] = None
) -> AnySpec:
    """Turn ``source`` into the matching typed configuration.

    ``source`` may be a path to a JSON document, a mapping, or an
    already-built :class:`CampaignSpec` / :class:`SimulationConfig` /
    :class:`ExploreConfig` (returned unchanged).  The document's ``"kind"``
    key — or the ``kind`` argument, which wins — selects ``"campaign"``,
    ``"simulation"``, ``"explore"``, ``"live"`` (a simulation on the live
    backend) or ``"fuzz"``; without either the kind is inferred: campaign
    axes mean a campaign, a ``"target"`` or ``"budget"`` a fuzz spec, a
    ``"program"`` an explore spec, anything else a single simulation.

    Args:
        source: a JSON file path, a mapping, or an already-built spec.
        kind: explicit spec kind (``"campaign"``, ``"simulation"``,
            ``"explore"``, ``"live"``, ``"fuzz"``); wins over the
            document's ``"kind"`` key and over inference.

    Returns:
        The matching typed configuration object.

    Raises:
        SpecValidationError: for unreadable/invalid documents, unknown
            kinds or keys — always naming the offending field and, where
            the domain is enumerable, the accepted values.
    """
    if isinstance(source, (CampaignSpec, SimulationConfig, ExploreConfig, FuzzSpec)):
        return source
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            raise SpecValidationError("source", f"cannot read {source!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecValidationError("source", f"{source!r} is not JSON: {exc}") from exc
    elif isinstance(source, Mapping):
        document = dict(source)
    else:
        raise SpecValidationError(
            "source",
            f"expected a path, mapping or spec object, got {type(source).__name__}",
        )
    if not isinstance(document, dict):
        raise SpecValidationError("source", "the document must be a JSON object")

    declared = document.pop("kind", None)
    resolved = kind or declared or _infer_kind(document)
    _check_choice("kind", resolved, _KINDS)
    if resolved == "campaign":
        return _campaign_spec(document)
    if resolved == "explore":
        return _explore_config(document)
    if resolved == "fuzz":
        return _fuzz_spec(document)
    return _simulation_config(
        document, backend="live" if resolved == "live" else None
    )


def run(
    spec: Union[str, Mapping[str, Any], AnySpec],
    *,
    store: Optional[str] = None,
    traces: Optional[str] = None,
    workers: int = 1,
    shard: Optional[Tuple[int, int]] = None,
    retry_failed: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    max_executions: Optional[int] = None,
) -> Any:
    """Execute ``spec`` (anything :func:`load_spec` accepts) and return its
    native result object.

    * a campaign runs through :func:`run_campaign` (``store``, ``traces``,
      ``workers``, ``shard``, ``retry_failed`` and ``progress`` apply) and
      returns a :class:`CampaignRun`;
    * a simulation runs through :class:`SimulationRunner` — or, when its
      backend is ``"live"``, on real OS processes — and returns a
      :class:`SimulationResult`;
    * an explore config walks its schedule space (``max_executions`` caps
      the budget) and returns an ``ExplorationResult``;
    * a fuzz spec runs the coverage-guided fuzzer
      (:func:`repro.fuzz.fuzz`; ``max_executions`` overrides its budget)
      and returns a :class:`~repro.fuzz.FuzzResult`.

    Args:
        spec: anything :func:`load_spec` accepts.
        store: campaign only — SQL result-store path (claim/lease fabric).
        traces: campaign only — directory for per-cell trace artifacts.
        workers: campaign only — process-pool width.
        shard: campaign only — ``(k, n)`` grid shard.
        retry_failed: campaign only — re-execute failed cells in the store.
        progress: campaign only — ``(done, total)`` callback.
        max_executions: explore/fuzz only — execution budget cap.

    Returns:
        The spec's native result object, as listed above.

    Raises:
        SpecValidationError: when an option does not apply to the spec's
            kind — options are never silently dropped.
    """
    loaded = load_spec(spec)
    if isinstance(loaded, CampaignSpec):
        if max_executions is not None:
            raise SpecValidationError(
                "max_executions", "only applies to explore specs"
            )
        return run_campaign(
            loaded,
            store_path=store,
            workers=workers,
            trace_dir=traces,
            shard=shard,
            retry_failed=retry_failed,
            progress=progress,
        )
    campaign_only = {
        "store": store, "traces": traces, "shard": shard,
        "retry_failed": retry_failed or None, "progress": progress,
    }
    used = sorted(name for name, value in campaign_only.items() if value)
    if isinstance(loaded, FuzzSpec):
        if used:
            raise SpecValidationError(used[0], "only applies to campaign specs")
        from repro.fuzz.fuzzer import fuzz as run_fuzz

        return run_fuzz(
            loaded.target,
            budget=max_executions if max_executions is not None else loaded.budget,
            seed=loaded.seed,
            corpus=loaded.corpus,
            guided=loaded.guided,
            minimize=loaded.minimize,
        )
    if isinstance(loaded, ExploreConfig):
        if used:
            raise SpecValidationError(used[0], "only applies to campaign specs")
        from repro.explore import explore

        return explore(loaded, max_executions=max_executions)
    if used:
        raise SpecValidationError(used[0], "only applies to campaign specs")
    if max_executions is not None:
        raise SpecValidationError("max_executions", "only applies to explore specs")
    if loaded.backend == "live":
        from repro.live import run_live

        return run_live(loaded).result
    return SimulationRunner(loaded).run()


def query(
    store: str, name: Optional[str] = None, **params: Any
) -> Union[List[Mapping[str, Any]], Any]:
    """Answer a canned question over a result store.

    With a ``name`` from :data:`repro.scenarios.campaign.queries.QUERIES`
    this returns the query's rows (``params`` override its defaults).
    Without one it returns the byte-identical campaign aggregate — a
    :class:`~repro.scenarios.campaign.aggregate.CampaignSummary` — honouring
    ``group_by`` and ``allow_incomplete``.

    Args:
        store: path to a SQL result store.
        name: a canned query name, ``"aggregate"``, or ``None``.
        **params: query parameters, overriding the query's defaults.

    Returns:
        The query's rows (a list of mappings), or a ``CampaignSummary``
        for the aggregate form.

    Raises:
        SpecValidationError: for unknown query names or parameters.
        FileNotFoundError: when ``store`` does not exist (nothing is created).
        ValueError: when ``store`` exists but is not a SQLite result store.
    """
    from repro.scenarios.campaign.queries import QUERIES, run_query, store_summary
    from repro.scenarios.campaign.sqlstore import SQLResultStore

    if name is None or name == "aggregate":
        group_by = params.pop("group_by", None)
        allow_incomplete = bool(params.pop("allow_incomplete", False))
        if params:
            raise SpecValidationError(
                sorted(params)[0],
                "unknown aggregate option",
                accepted=["group_by", "allow_incomplete"],
            )
        return store_summary(
            store, group_by=group_by, allow_incomplete=allow_incomplete
        )
    if name not in QUERIES:
        raise SpecValidationError(
            "name", f"unknown query {name!r}", accepted=sorted(QUERIES)
        )
    # Opened outside the try: an unusable store is not a parameter error.
    with SQLResultStore(store, create=False) as opened:
        try:
            return run_query(opened, name, **params)
        except (KeyError, ValueError) as exc:
            raise SpecValidationError("params", str(exc)) from exc


__all__ = [
    "AnySpec",
    "SpecValidationError",
    "load_spec",
    "query",
    "run",
]
