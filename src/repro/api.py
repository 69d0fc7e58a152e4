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
import math
import random
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.explore import ExploreConfig, explore
from repro.fuzz.fuzzer import FuzzSpec, builtin_targets, fuzz, resolve_target
from repro.gc import available_collectors
from repro.protocols import available_protocols
from repro.scenarios.campaign.executor import run_campaign
from repro.scenarios.campaign.queries import QUERIES, run_query, store_summary
from repro.scenarios.campaign.spec import (
    AXES,
    CampaignSpec,
    CollectorSpec,
    SPEC_KEYS,
    WorkloadSpec,
    failure_schedule,
    failures_from_entry,
    membership_from_entry,
    spec_from_mapping,
)
from repro.scenarios.campaign.sqlstore import SQLResultStore
from repro.simulation import (
    FailureSchedule,
    SimulationConfig,
    available_workloads,
    network_config_from_mapping,
    run_simulation,
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


def _check_keys(document: Mapping[str, Any], known: Sequence[str], kind: str) -> None:
    unknown = sorted(set(document) - set(known))
    if unknown:
        raise SpecValidationError(
            unknown[0], f"unknown {kind} spec key", accepted=sorted(known)
        )


def _number(
    document: Mapping[str, Any],
    field: str,
    convert: Callable[[Any], Any],
    default: Any,
    *,
    minimum: Optional[int] = None,
) -> Any:
    """The ``int``/``float`` at ``field``, naming the field when it is none."""
    value = document.get(field, default)
    try:
        number = convert(value)
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise SpecValidationError(field, f"expected {kind}, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise SpecValidationError(field, f"must be at least {minimum}, got {value!r}")
    return number


def _run_shape(document: Mapping[str, Any]) -> Tuple[int, float]:
    """``(num_processes, duration)`` of a simulation or campaign document."""
    num_processes = _number(document, "num_processes", int, 4, minimum=1)
    duration = _number(document, "duration", float, 120.0)
    if not 0 < duration < math.inf:
        raise SpecValidationError(
            "duration", f"the duration must be positive and finite, got {duration!r}"
        )
    return num_processes, duration


def _parse(field: str, parser: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run a spec-layer parser or constructor, naming ``field`` if it refuses."""
    try:
        return parser(*args, **kwargs)
    except SpecValidationError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise SpecValidationError(field, str(exc)) from exc


def _collector(document: Mapping[str, Any]) -> CollectorSpec:
    """A run's ``collector`` name plus ``collector_options``, both checked."""
    name = document.get("collector", "rdt-lgc")
    _check_choice("collector", name, available_collectors())
    return _parse(
        "collector_options", CollectorSpec.of, name, document.get("collector_options")
    )


def _entry_name(entry: Any) -> Any:
    """An axis entry's registry name — bare string or a ``{"name": ...}``."""
    if isinstance(entry, Mapping):
        return entry.get("name")
    return entry


def _check_names(document: Mapping[str, Any], axis: str, accepted: Sequence[str]) -> None:
    """Check one campaign axis's registry names — vocabulary only; a
    mis-shaped axis or entry is the spec layer's to report."""
    entries = document.get(axis)
    for index, entry in enumerate(entries if isinstance(entries, (list, tuple)) else ()):
        if isinstance(_entry_name(entry), str):
            _check_choice(f"{axis}[{index}]", _entry_name(entry), accepted)


def _campaign_spec(document: Mapping[str, Any]) -> CampaignSpec:
    _check_keys(document, sorted(SPEC_KEYS), "campaign")
    # Vocabulary before structure: a typoed collector fails here with the
    # accepted list instead of as a deep factory error mid-expansion.
    _check_names(document, "protocols", available_protocols())
    _check_names(document, "collectors", available_collectors())
    _check_names(document, "workloads", available_workloads())
    _check_names(document, "backends", _BACKENDS)
    if "audit" in document:
        _check_choice("audit", document["audit"], _AUDITS)
    if "name" not in document:
        raise SpecValidationError("name", "a campaign spec needs a name")
    _run_shape(document)
    return _parse("spec", spec_from_mapping, document)


def _failure_schedule(
    value: Any, *, num_processes: int, duration: float, seed: int
) -> FailureSchedule:
    """A single run's ``failures``: explicit ``[time, pid]`` pairs, or a
    failure-axis entry (crash count, ``{"model": "churn", ...}``) drawn from
    the run seed."""
    if value is None:
        return FailureSchedule.none()
    if isinstance(value, (list, tuple)):
        return FailureSchedule.of((float(t), int(pid)) for t, pid in value)
    return failure_schedule(
        failures_from_entry(value),
        num_processes=num_processes,
        duration=duration,
        rng=random.Random(seed),
    )


_SIMULATION_KEYS = (
    "name", "num_processes", "duration", "workload", "protocol", "collector",
    "collector_options", "network", "failures", "membership", "seed",
    "sample_interval", "audit", "backend", "trace",
)


def _simulation_config(
    document: Mapping[str, Any], *, backend: Optional[str] = None
) -> SimulationConfig:
    _check_keys(document, _SIMULATION_KEYS, "simulation")
    workload = document.get("workload", "uniform-random")
    protocol = document.get("protocol", "fdas")
    audit = document.get("audit", "off")
    backend = backend or document.get("backend", "sim")
    _check_choice("workload", _entry_name(workload), available_workloads())
    _check_choice("protocol", protocol, available_protocols())
    collector = _collector(document)
    _check_choice("audit", audit, _AUDITS)
    _check_choice("backend", backend, _BACKENDS)
    num_processes, duration = _run_shape(document)
    seed = _number(document, "seed", int, 0)
    return _parse(
        "spec",
        SimulationConfig,
        num_processes=num_processes,
        duration=duration,
        workload=_parse("workload", WorkloadSpec.from_entry, workload).build(),
        protocol=protocol,
        collector=collector.name,
        collector_options=collector.options_dict(),
        network=_parse(
            "network", network_config_from_mapping, dict(document.get("network", {}))
        ),
        failures=_parse(
            "failures",
            _failure_schedule,
            document.get("failures"),
            num_processes=num_processes,
            duration=duration,
            seed=seed,
        ),
        membership=_parse("membership", membership_from_entry, document.get("membership")),
        seed=seed,
        sample_interval=document.get("sample_interval"),
        audit=audit,
        trace_path=document.get("trace"),
        backend=backend,
    )


def _program_step(entry: Any, index: int) -> Sequence[Any]:
    """One program step in the ``["send", 0, 1]`` list form that
    :meth:`ExploreConfig.describe` emits and ``from_mapping`` parses; the
    ``{"op": "send", "pid": 0, "target": 1}`` mapping form is converted."""
    if isinstance(entry, Mapping):
        if not isinstance(entry.get("pid"), int):
            raise SpecValidationError(f"program[{index}].pid", "an integer pid is required")
        if entry.get("op") == "send" and not isinstance(entry.get("target"), int):
            raise SpecValidationError(
                f"program[{index}].target", "send steps need an integer target"
            )
        entry = [entry.get("op"), entry["pid"], entry.get("target")]
    elif not isinstance(entry, (list, tuple)) or not entry:
        raise SpecValidationError(
            f"program[{index}]",
            f"expected a mapping like {{'op': 'send', 'pid': 0, 'target': 1}}, "
            f"got {entry!r}",
        )
    _check_choice(f"program[{index}].op", entry[0], _STEP_OPS)
    return entry


_EXPLORE_KEYS = (
    "name", "num_processes", "program", "protocol", "collector",
    "collector_options", "seed", "step_gap",
)


def _explore_config(document: Mapping[str, Any]) -> ExploreConfig:
    _check_keys(document, _EXPLORE_KEYS, "explore")
    _check_choice("protocol", document.get("protocol", "fdas"), available_protocols())
    collector = _collector(document)
    steps = document.get("program")
    if not isinstance(steps, (list, tuple)):
        raise SpecValidationError(
            "program", "an explore spec needs a list of program steps"
        )
    return _parse(
        "spec",
        ExploreConfig.from_mapping,
        {
            "num_processes": 2,
            **document,
            "program": [_program_step(step, index) for index, step in enumerate(steps)],
            "collector_options": collector.options_dict(),
        },
    )


def _fuzz_spec(document: Mapping[str, Any]) -> FuzzSpec:
    """A fuzz campaign: a built-in ``target`` name *or* an inline program.

    ``{"kind": "fuzz", "target": "ring", "budget": 500}`` fuzzes a built-in
    target; an explore-shaped document (``program``, ``collector``, ...)
    plus the fuzz knobs fuzzes that custom configuration.
    """
    fuzz_keys = ("target", "budget", "seed", "corpus", "guided", "minimize")
    # The fuzzer's own seed is a mutation-stream seed, not the simulation
    # seed; an embedded configuration keeps the default.
    explore_keys = tuple(key for key in _EXPLORE_KEYS if key != "seed")
    _check_keys(document, fuzz_keys + explore_keys, "fuzz")
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
        target = resolve_target(
            _explore_config({key: document[key] for key in explore_keys if key in document})
        )
    else:
        raise SpecValidationError(
            "target", "a fuzz spec needs a built-in target or an inline program"
        )
    return FuzzSpec(
        target=target,
        budget=_number(document, "budget", int, 300, minimum=0),
        seed=_number(document, "seed", int, 0),
        corpus=document.get("corpus"),
        guided=bool(document.get("guided", True)),
        minimize=bool(document.get("minimize", True)),
    )


def _infer_kind(document: Mapping[str, Any]) -> str:
    if {*AXES, "base_seed"} & set(document):
        return "campaign"
    if "target" in document or "budget" in document:
        return "fuzz"
    if "program" in document:
        return "explore"
    return "simulation"


def load_spec(
    source: Union[str, Mapping[str, Any], AnySpec], *, kind: Optional[str] = None
) -> Any:
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
        The matching typed configuration object (an :data:`AnySpec` member;
        annotated ``Any`` because which one depends on the document).

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
    * a simulation runs through :func:`run_simulation` — the simulator or,
      when its backend is ``"live"``, real OS processes — and returns a
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
            kind — options are never silently dropped — or when
            ``max_executions`` is negative.
    """
    loaded = load_spec(spec)
    if max_executions is not None:
        if not isinstance(loaded, (ExploreConfig, FuzzSpec)):
            raise SpecValidationError(
                "max_executions", "only applies to explore and fuzz specs"
            )
        if max_executions < 0:
            raise SpecValidationError(
                "max_executions", f"must be at least 0, got {max_executions!r}"
            )
    if isinstance(loaded, CampaignSpec):
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
    if used:
        raise SpecValidationError(used[0], "only applies to campaign specs")
    if isinstance(loaded, FuzzSpec):
        return fuzz(
            loaded.target,
            budget=max_executions if max_executions is not None else loaded.budget,
            seed=loaded.seed,
            corpus=loaded.corpus,
            guided=loaded.guided,
            minimize=loaded.minimize,
        )
    if isinstance(loaded, ExploreConfig):
        return explore(loaded, max_executions=max_executions)
    return run_simulation(loaded)


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
        ValueError: when ``store`` exists but is not a SQLite result store,
            or ``group_by`` names an axis its cells do not have.
    """
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
