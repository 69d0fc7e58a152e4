"""Campaign specifications: declarative grids and their expansion into cells.

A :class:`CampaignSpec` is a cross-product description of a study; expanding
it yields one :class:`CampaignCell` per grid point.  Cells are *declarative*
(names and scalar parameters, never live objects) so they are picklable for
pool execution and hashable for the result store.  A single run's document
(:func:`config_from_mapping`) is read here too: its entries are the axes'.

Seed derivation.  A cell's identity — its ``cell_id`` — is a SHA-256 digest
of the canonical JSON encoding of its parameters.  The engine seed and the
failure-schedule seed are derived from that digest with distinct labels.
Consequences, by construction:

* the same grid point always runs with the same seeds, no matter where in
  the grid it sits, in which order cells execute, or on how many workers;
* two cells differing in any parameter (including the campaign ``base_seed``)
  get independent seed streams;
* a stored result can be matched back to its cell without re-running anything.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.gc.registry import CollectorSpec, check_collector
from repro.membership import MembershipSchedule
from repro.protocols.registry import available_protocols
from repro.simulation.failures import FailureModelSpec, FailureSchedule
from repro.simulation.network import NetworkConfig, network_config_from_mapping
from repro.simulation.runner import SimulationConfig, check_run
from repro.simulation.workloads import Workload, available_workloads, make_workload
from repro.validation import (
    Options,
    SpecValidationError,
    check_choice,
    check_keys,
    freeze_options,
    integer,
    naming,
    number,
    registry_entry,
    text,
)

#: A failure axis entry: a bare crash count (the paper's regime) or a
#: declarative failure model (e.g. crash-recovery churn).
FailureAxisEntry = Union[int, FailureModelSpec]


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload generator by name plus its construction parameters."""

    name: str
    params: Options = ()

    @classmethod
    def of(cls, name: str, params: Optional[Mapping[str, Any]] = None) -> "WorkloadSpec":
        """A checked spec: an unknown name or a bad parameter is refused here."""
        check_choice("", name, available_workloads())
        with naming(""):
            spec = cls(name, freeze_options(params))
            spec.build()
        return spec

    @classmethod
    def from_entry(cls, entry: Any) -> "WorkloadSpec":
        """A document entry: a bare name or ``{"name": ..., "params": {...}}``."""
        return cls.of(*registry_entry(entry, "params"))

    def build(self) -> Workload:
        """A fresh workload generator of this spec."""
        return make_workload(self.name, **dict(self.params))


def failures_from_entry(entry: Any) -> FailureAxisEntry:
    """A document entry: a crash count or ``{"model": "churn", ...}``."""
    if isinstance(entry, Mapping):
        params = dict(entry)
        model = params.pop("model", None)
        if model is None:
            raise SpecValidationError(
                "",
                "failure-model entries need a 'model' key "
                "(e.g. {'model': 'churn', 'hazard_rate': 0.05})",
            )
        with naming(""):
            return FailureModelSpec.of(model, params)
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise SpecValidationError(
            "", f"expected a crash count or a failure-model mapping, got {entry!r}"
        )
    return entry


def membership_from_entry(entry: Any) -> MembershipSchedule:
    """A document entry: ``"static"`` or ``{"joins": [[t, pid]], "leaves": ...}``."""
    if entry in (None, "static"):
        return MembershipSchedule.static()
    if not isinstance(entry, Mapping):
        raise SpecValidationError(
            "", "expected 'static' or a mapping like {'joins': [[20.0, 4]], 'leaves': [[60.0, 1]]}"
        )
    with naming(""):
        return MembershipSchedule.from_mapping(entry)


def failure_schedule(
    entry: FailureAxisEntry, *, num_processes: int, duration: float, rng: random.Random
) -> FailureSchedule:
    """The crash schedule a failure entry stands for, drawn from ``rng`` (a
    bare count is the ``crashes`` model with that count)."""
    if isinstance(entry, int):
        entry = FailureModelSpec("crashes", (("count", entry),))
    return entry.schedule(num_processes=num_processes, duration=duration, rng=rng)


@dataclass(frozen=True)
class CampaignCell:
    """One grid point of a campaign: everything needed to reproduce one run."""

    campaign: str
    num_processes: int
    duration: float
    protocol: str
    collector: str
    collector_options: Options
    workload: str
    workload_params: Options
    failures: FailureAxisEntry
    network: NetworkConfig
    seed_index: int
    base_seed: int
    audit: str = "off"
    backend: str = "sim"
    membership: MembershipSchedule = MembershipSchedule()

    # ------------------------------------------------------------------
    # Identity and seed derivation
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """The canonical, JSON-able description of this cell.

        Fault models are part of the identity: a failure-model entry renders
        as its canonical label and the network as its full description
        (channel model, partitions, FIFO discipline), so two cells differing
        only in a fault model hash to different ``cell_id`` values — while a
        cell with the paper's defaults keeps its pre-fault-model identity.
        The execution backend follows the same rule: it appears (and hashes)
        only when it is not the default simulator, so every pre-existing
        sim cell keeps its ``cell_id``.
        """
        params = {
            "campaign": self.campaign,
            "num_processes": self.num_processes,
            "duration": self.duration,
            "protocol": self.protocol,
            "collector": self.collector,
            "collector_options": dict(self.collector_options),
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "failures": (
                self.failures
                if isinstance(self.failures, int)
                else self.failures.label()
            ),
            "network": self.network.describe(),
            "seed_index": self.seed_index,
            "base_seed": self.base_seed,
            "audit": self.audit,
        }
        if self.backend != "sim":
            params["backend"] = self.backend
        if self.membership:
            # Same identity rule as the backend: only dynamic membership
            # enters the hash, so static cells keep their historical ids.
            params["membership"] = self.membership.label()
        return params

    @property
    def cell_id(self) -> str:
        """Stable identity: a digest of the canonical parameter encoding."""
        canonical = json.dumps(self.params(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def _derive(self, label: str) -> int:
        digest = hashlib.sha256(f"{self.cell_id}:{label}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def seed(self) -> int:
        """The engine seed of this cell (derived, execution-order independent)."""
        return self._derive("engine")

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def failure_schedule(self) -> FailureSchedule:
        """The crash schedule of this cell, derived from the cell identity."""
        return failure_schedule(
            self.failures,
            num_processes=self.num_processes,
            duration=self.duration,
            rng=random.Random(self._derive("failures")),
        )

    def config(self) -> SimulationConfig:
        """Materialise the cell into a runnable :class:`SimulationConfig`."""
        return SimulationConfig(
            num_processes=self.num_processes,
            duration=self.duration,
            workload=make_workload(self.workload, **dict(self.workload_params)),
            protocol=self.protocol,
            collector=self.collector,
            collector_options=dict(self.collector_options),
            network=self.network,
            failures=self.failure_schedule(),
            seed=self.seed,
            audit=self.audit,
            keep_final_ccp=False,
            backend=self.backend,
            membership=self.membership,
        )


#: The grid axes — `CampaignSpec` fields and campaign-document keys alike —
#: in expansion order (the first varies slowest).
AXES = (
    "protocols", "collectors", "workloads", "failure_counts", "networks",
    "seeds", "backends", "memberships",
)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: the cross product of every axis in :data:`AXES`."""

    name: str
    num_processes: int = 4
    duration: float = 120.0
    protocols: Tuple[str, ...] = ("fdas",)
    collectors: Tuple[CollectorSpec, ...] = (CollectorSpec("rdt-lgc"),)
    workloads: Tuple[WorkloadSpec, ...] = (WorkloadSpec("uniform-random"),)
    #: Crash counts (the paper's regime) and/or declarative failure models
    #: such as churn — both are grid axis entries, hashed into cell ids.
    failure_counts: Tuple[FailureAxisEntry, ...] = (0,)
    networks: Tuple[NetworkConfig, ...] = (NetworkConfig(),)
    seeds: Tuple[int, ...] = (0,)
    base_seed: int = 0
    audit: str = "off"
    #: Execution backends: ``"sim"`` and/or ``"live"`` — a grid axis like
    #: any other, so one spec can run the same cells simulated and on real
    #: processes and compare their metrics side by side.
    backends: Tuple[str, ...] = ("sim",)
    #: Membership schedules: the static default and/or dynamic join/leave
    #: models.  A grid axis, so one spec can compare the same cells under
    #: fixed and churning membership.
    memberships: Tuple[MembershipSchedule, ...] = (MembershipSchedule(),)

    def __post_init__(self) -> None:
        # Checked here, not per cell: `execute_cell` materialises the cell's
        # SimulationConfig outside the try that turns a raise into a record.
        for label in AXES:
            axis = getattr(self, label)
            if not axis:
                raise SpecValidationError(
                    label, f"a campaign needs at least one entry on the {label} axis"
                )
            if len(set(axis)) != len(axis):
                # Duplicate entries expand to identical cells (same cell_id),
                # which would execute twice and double-count in aggregation.
                raise SpecValidationError(label, f"duplicate entries on the {label} axis")
        # Every cell is a run: the run rules hold for each backend and
        # membership the grid pairs.
        for b, backend in enumerate(self.backends):
            for m, membership in enumerate(self.memberships):
                check_run(
                    self.num_processes, self.duration, self.audit, backend, membership,
                    scope="campaign",
                    backend_field=f"backends[{b}]",
                    membership_field=f"memberships[{m}]",
                )
        for index, protocol in enumerate(self.protocols):
            check_choice(f"protocols[{index}]", protocol, available_protocols())
        for index, collector in enumerate(self.collectors):
            check_collector(f"collectors[{index}]", collector.name)
        for index, workload in enumerate(self.workloads):
            check_choice(f"workloads[{index}]", workload.name, available_workloads())
        for index, entry in enumerate(self.failure_counts):
            if not isinstance(entry, FailureModelSpec) and not (type(entry) is int and entry >= 0):
                raise SpecValidationError(
                    f"failure_counts[{index}]", "expected a crash count or a FailureModelSpec"
                )

    @property
    def cell_count(self) -> int:
        """Number of cells the grid expands to."""
        return math.prod(len(getattr(self, axis)) for axis in AXES)

    def cells(self) -> List[CampaignCell]:
        """Expand the grid.  The order is deterministic (axis-major), but a
        cell's identity and seeds do not depend on its position in it."""
        return [
            CampaignCell(
                campaign=self.name,
                num_processes=self.num_processes,
                duration=self.duration,
                protocol=protocol,
                collector=collector.name,
                collector_options=collector.options,
                workload=workload.name,
                workload_params=workload.params,
                failures=failures,
                network=network,
                seed_index=seed_index,
                base_seed=self.base_seed,
                audit=self.audit,
                backend=backend,
                membership=membership,
            )
            for (
                protocol, collector, workload, failures,
                network, seed_index, backend, membership,
            ) in itertools.product(*(getattr(self, axis) for axis in AXES))
        ]


#: Every key a campaign document may carry.
SPEC_KEYS = frozenset({"name", "num_processes", "duration", "base_seed", "audit", *AXES})


def _axis(
    document: Mapping[str, Any], axis: str, default: Any, parse: Callable[[Any], Any]
) -> Tuple[Any, ...]:
    """One grid axis of a campaign document, each entry parsed under its
    position (``collectors[1]``)."""
    entries = document.get(axis, default)
    if not isinstance(entries, (list, tuple)):
        # A bare string would expand per character: tuple("fdas").
        raise SpecValidationError(axis, f"the {axis} axis must be a list, got {entries!r}")
    parsed = []
    for index, entry in enumerate(entries):
        with naming(f"{axis}[{index}]"):
            parsed.append(parse(entry))
    return tuple(parsed)


def spec_from_mapping(document: Mapping[str, Any]) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a JSON-style mapping.

    The schema is documented once, in ``docs/architecture.md`` ("Run
    documents"); the entry parsers above are shared with
    :func:`config_from_mapping`.  ``seeds`` may be a list of seed indices or
    an integer count (expanded to ``range(count)``).
    """
    check_keys(document, SPEC_KEYS, "campaign spec")
    if "name" not in document:
        raise SpecValidationError("name", "a campaign spec needs a name")
    seeds = document.get("seeds", 1)
    if isinstance(seeds, int) and not isinstance(seeds, bool):
        seeds = tuple(range(seeds))
    else:
        seeds = _axis(document, "seeds", (), lambda seed: integer("", seed))
    return CampaignSpec(
        name=text("name", document["name"]),
        num_processes=integer("num_processes", document.get("num_processes", 4)),
        duration=number("duration", document.get("duration", 120.0)),
        protocols=_axis(document, "protocols", ("fdas",), lambda name: text("", name)),
        collectors=_axis(document, "collectors", ("rdt-lgc",), CollectorSpec.from_entry),
        workloads=_axis(document, "workloads", ("uniform-random",), WorkloadSpec.from_entry),
        failure_counts=_axis(document, "failure_counts", (0,), failures_from_entry),
        networks=_axis(document, "networks", ({},), network_config_from_mapping),
        seeds=seeds,
        base_seed=integer("base_seed", document.get("base_seed", 0)),
        audit=document.get("audit", "off"),
        backends=_axis(document, "backends", ("sim",), lambda name: text("", name)),
        memberships=_axis(document, "memberships", ("static",), membership_from_entry),
    )


#: Every key a single-run document may carry.
RUN_KEYS = (
    "name", "num_processes", "duration", "workload", "protocol", "collector",
    "collector_options", "network", "failures", "membership", "seed",
    "sample_interval", "audit", "backend", "trace",
)


def config_from_mapping(
    document: Mapping[str, Any], *, backend: Optional[str] = None
) -> SimulationConfig:
    """Build one run's :class:`SimulationConfig` from a JSON-style mapping.

    The entries are the campaign axes' (one parser each); ``failures`` may
    also list explicit ``[time, pid]`` crashes.  ``backend`` (the ``live``
    document kind) wins over the document's ``"backend"`` key.
    """
    check_keys(document, RUN_KEYS, "simulation spec")
    collector = CollectorSpec.of(
        document.get("collector", "rdt-lgc"),
        document.get("collector_options"),
        field="collector",
        options_field="collector_options",
    )
    with naming("workload"):
        workload = WorkloadSpec.from_entry(document.get("workload", "uniform-random"))
    with naming("network"):
        network = network_config_from_mapping(document.get("network", {}))
    with naming("membership"):
        membership = membership_from_entry(document.get("membership"))
    failures = document.get("failures")
    with naming("failures"):
        if isinstance(failures, (list, tuple)):
            failures = FailureSchedule.of((number("", t), integer("", p)) for t, p in failures)
        elif failures is not None:
            failures = failures_from_entry(failures)
    sample_interval = document.get("sample_interval")
    trace = document.get("trace")
    config = SimulationConfig(
        num_processes=integer("num_processes", document.get("num_processes", 4)),
        duration=number("duration", document.get("duration", 120.0)),
        workload=workload.build(),
        protocol=document.get("protocol", "fdas"),
        collector=collector.name,
        collector_options=collector.options_dict(),
        network=network,
        failures=failures if isinstance(failures, FailureSchedule) else FailureSchedule.none(),
        seed=integer("seed", document.get("seed", 0)),
        sample_interval=(
            None if sample_interval is None else number("sample_interval", sample_interval)
        ),
        audit=document.get("audit", "off"),
        trace_path=None if trace is None else text("trace", trace),
        backend=backend or document.get("backend", "sim"),
        membership=membership,
    )
    if failures is None or isinstance(failures, FailureSchedule):
        return config
    # A crash count or failure model is drawn from the run's seed once the
    # run itself passed its checks.
    with naming("failures"):
        drawn = failure_schedule(
            failures, num_processes=config.num_processes, duration=config.duration,
            rng=random.Random(config.seed),
        )
    return replace(config, failures=drawn)
