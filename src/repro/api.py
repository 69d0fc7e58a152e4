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

One check per rule: :func:`load_spec` only reads the document, picks its
kind and calls that kind's parser.  Every rule — vocabularies, ranges,
types, unknown keys — is checked once, by the typed configuration or entry
parser that owns it, which raises :class:`SpecValidationError` naming the
offending field and, where the set is enumerable, the accepted values —
*before* anything expensive runs, and the same way for a document as for a
programmatic caller.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.explore import ExploreConfig, explore
from repro.fuzz.fuzzer import FuzzSpec, fuzz
from repro.scenarios.campaign.executor import run_campaign
from repro.scenarios.campaign.queries import QUERIES, run_query, store_summary
from repro.scenarios.campaign.spec import (
    AXES,
    CampaignSpec,
    config_from_mapping,
    spec_from_mapping,
)
from repro.scenarios.campaign.sqlstore import SQLResultStore
from repro.simulation import SimulationConfig, run_simulation
from repro.validation import SpecValidationError, check_choice

AnySpec = Union[CampaignSpec, SimulationConfig, ExploreConfig, "FuzzSpec"]

#: One parser per document kind; each raises the document's refusals itself.
_PARSERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "campaign": spec_from_mapping,
    "simulation": config_from_mapping,
    "explore": ExploreConfig.from_mapping,
    "live": partial(config_from_mapping, backend="live"),
    "fuzz": FuzzSpec.from_mapping,
}


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
        except ValueError as exc:  # undecodable bytes or malformed JSON
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
    check_choice("kind", resolved, tuple(_PARSERS))
    return _PARSERS[resolved](document)


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
