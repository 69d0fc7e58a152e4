"""Campaign specifications: declarative grids and their expansion into cells.

A :class:`CampaignSpec` is a cross-product description of a study; expanding
it yields one :class:`CampaignCell` per grid point.  Cells are *declarative*
(names and scalar parameters, never live objects) so they are picklable for
pool execution and hashable for the result store.

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
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.gc.registry import collector_class, make_collector
from repro.membership import MembershipSchedule
from repro.protocols.registry import protocol_class
from repro.simulation.failures import FailureModelSpec, FailureSchedule
from repro.simulation.network import NetworkConfig, network_config_from_mapping
from repro.simulation.runner import SimulationConfig
from repro.simulation.workloads import Workload, make_workload, workload_class
from repro.storage.stable import StableStorage

#: A failure axis entry: a bare crash count (the paper's regime) or a
#: declarative failure model (e.g. crash-recovery churn).
FailureAxisEntry = Union[int, FailureModelSpec]

#: Options are stored as sorted ``(key, value)`` tuples: hashable, picklable
#: and with a canonical order so equal option sets hash identically.
Options = Tuple[Tuple[str, Any], ...]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _freeze_options(options: Optional[Mapping[str, Any]]) -> Options:
    if not options:
        return ()
    frozen = []
    for key, value in dict(options).items():
        if not isinstance(value, _SCALAR_TYPES):
            # Nested containers would break the hashability the frozen form
            # promises (and crash the duplicate-axis check with a bare
            # TypeError far from the offending entry).
            raise ValueError(
                f"option {key!r} must be a scalar, got {type(value).__name__}"
            )
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class CollectorSpec:
    """A garbage collector by name plus its construction options."""

    name: str
    options: Options = ()

    @classmethod
    def of(cls, name: str, options: Optional[Mapping[str, Any]] = None) -> "CollectorSpec":
        spec = cls(name, _freeze_options(options))
        # Fail fast on unknown names AND bad options: a typo'd option must
        # surface here, not as per-cell failure records mid-sweep.
        make_collector(name, 0, 2, StableStorage(0), **spec.options_dict())
        return spec

    @classmethod
    def from_entry(cls, entry: Any) -> "CollectorSpec":
        """A document entry: a bare name or ``{"name": ..., "options": {...}}``."""
        if isinstance(entry, str):
            return cls.of(entry)
        return cls.of(entry["name"], entry.get("options"))

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload generator by name plus its construction parameters."""

    name: str
    params: Options = ()

    @classmethod
    def of(cls, name: str, params: Optional[Mapping[str, Any]] = None) -> "WorkloadSpec":
        spec = cls(name, _freeze_options(params))
        spec.build()  # fail fast on unknown names and bad parameters
        return spec

    @classmethod
    def from_entry(cls, entry: Any) -> "WorkloadSpec":
        """A document entry: a bare name or ``{"name": ..., "params": {...}}``."""
        if isinstance(entry, str):
            return cls.of(entry)
        return cls.of(entry["name"], entry.get("params"))

    def build(self) -> Workload:
        return make_workload(self.name, **dict(self.params))


def failures_from_entry(entry: Any) -> FailureAxisEntry:
    """A document entry: a crash count or ``{"model": "churn", ...}``."""
    if isinstance(entry, Mapping):
        params = dict(entry)
        model = params.pop("model", None)
        if model is None:
            raise ValueError(
                "failure-model entries need a 'model' key "
                "(e.g. {'model': 'churn', 'hazard_rate': 0.05})"
            )
        return FailureModelSpec.of(str(model), params)
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ValueError(f"expected a crash count or a failure-model mapping, got {entry!r}")
    return entry


def membership_from_entry(entry: Any) -> MembershipSchedule:
    """A document entry: ``"static"`` or ``{"joins": [[t, pid]], "leaves": ...}``."""
    if entry in (None, "static"):
        return MembershipSchedule.static()
    if not isinstance(entry, Mapping):
        raise ValueError(
            "memberships entries must be 'static' or mappings like "
            "{'joins': [[20.0, 4]], 'leaves': [[60.0, 1]]}"
        )
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
        if self.num_processes <= 0:
            raise ValueError("a campaign needs at least one process")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"the duration must be positive and finite, got {self.duration!r}")
        for label in AXES:
            axis = getattr(self, label)
            if not axis:
                raise ValueError(f"a campaign needs at least one entry on the {label} axis")
            if len(set(axis)) != len(axis):
                # Duplicate entries expand to identical cells (same cell_id),
                # which would execute twice and double-count in aggregation.
                raise ValueError(f"duplicate entries on the {label} axis")
        for protocol in self.protocols:
            protocol_class(protocol)  # fail fast on unknown names
        for collector in self.collectors:
            collector_class(collector.name)
        for workload in self.workloads:
            workload_class(workload.name)
        for entry in self.failure_counts:
            if isinstance(entry, int):
                if entry < 0:
                    raise ValueError("failure counts must be non-negative")
            elif not isinstance(entry, FailureModelSpec):
                raise ValueError(
                    "failure axis entries must be crash counts or FailureModelSpec"
                )
        if self.audit not in ("off", "safety", "full"):
            raise ValueError("audit must be one of 'off', 'safety', 'full'")
        for backend in self.backends:
            if backend not in ("sim", "live"):
                raise ValueError("backends entries must be 'sim' or 'live'")
        if "live" in self.backends and self.num_processes < 2:
            raise ValueError("a live run needs at least two processes")
        for membership in self.memberships:
            if not isinstance(membership, MembershipSchedule):
                raise ValueError("memberships entries must be MembershipSchedule")
            # Fail fast on schedules the grid cannot run: capacity overflow,
            # late events and (dynamic membership being simulator-only) live
            # backends.
            membership.validate_for(self.num_processes, self.duration, "campaign")
            if membership and "live" in self.backends:
                raise ValueError(
                    "dynamic membership runs on the 'sim' backend only; "
                    "drop 'live' from backends or the dynamic membership entry"
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


def spec_from_mapping(document: Mapping[str, Any]) -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a JSON-style mapping.

    The schema — what each axis entry may look like — is documented once, in
    ``docs/architecture.md`` ("Run documents"); the entry parsers are the
    ``from_entry`` functions above, shared with the single-run document of
    :func:`repro.api.load_spec`.  ``seeds`` may be a list of seed indices or
    an integer count (expanded to ``range(count)``).  Unknown keys are
    rejected — a typoed axis name must not silently run a different study.
    """
    unknown = sorted(set(document) - SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"unknown campaign spec keys: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(SPEC_KEYS))}"
        )
    seeds = document.get("seeds", 1)
    if isinstance(seeds, (str, bytes)):
        # "10" would otherwise be iterated per character into seeds (1, 0).
        raise ValueError("seeds must be an integer count or a list of seed indices")
    for axis in AXES:
        if isinstance(document.get(axis), (str, bytes)):
            # tuple("fdas") would expand to ('f','d','a','s') and produce
            # baffling unknown-name errors for each character.
            raise ValueError(f"the {axis} axis must be a list, not a bare string")
    if isinstance(seeds, int):
        seeds = tuple(range(seeds))
    else:
        seeds = tuple(int(s) for s in seeds)
    return CampaignSpec(
        name=str(document["name"]),
        num_processes=int(document.get("num_processes", 4)),
        duration=float(document.get("duration", 120.0)),
        protocols=tuple(document.get("protocols", ("fdas",))),
        collectors=tuple(map(CollectorSpec.from_entry, document.get("collectors", ("rdt-lgc",)))),
        workloads=tuple(
            map(WorkloadSpec.from_entry, document.get("workloads", ("uniform-random",)))
        ),
        failure_counts=tuple(map(failures_from_entry, document.get("failure_counts", (0,)))),
        networks=tuple(map(network_config_from_mapping, document.get("networks", ({},)))),
        seeds=seeds,
        base_seed=int(document.get("base_seed", 0)),
        audit=str(document.get("audit", "off")),
        backends=tuple(document.get("backends", ("sim",))),
        memberships=tuple(map(membership_from_entry, document.get("memberships", ("static",)))),
    )
