"""Experiment builders shared by tests, examples and benchmarks.

Two tiers live here:

* single-run helpers (:func:`random_run_config`, :func:`run_random_simulation`,
  :func:`run_worst_case`) — one :class:`SimulationConfig` at a time, used by
  unit tests and the figure reproductions;
* campaign builders (:func:`paper_campaign_spec`, :func:`smoke_campaign_spec`,
  :func:`run_collector_comparison`) — declarative
  :class:`repro.scenarios.campaign.CampaignSpec` grids executed by the
  campaign subsystem.  The paper's evaluation study (every collector ×
  every workload shape × several failure rates × many seeds) is the
  flagship spec; the smoke spec is the same shape shrunk to seconds for the
  regression gate.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.program import ExploreConfig

from repro.membership import MembershipSchedule
from repro.scenarios.campaign.aggregate import CampaignSummary, aggregate_campaign
from repro.scenarios.campaign.executor import CampaignRun, run_campaign
from repro.scenarios.campaign.spec import CampaignSpec, CollectorSpec, WorkloadSpec
from repro.simulation.channels import (
    DuplicatingChannel,
    GilbertElliottChannel,
    LatencyMatrixChannel,
    PartitionSchedule,
    UniformChannel,
)
from repro.simulation.failures import FailureModelSpec, FailureSchedule
from repro.simulation.network import NetworkConfig
from repro.simulation.runner import SimulationConfig, SimulationResult, run_simulation
from repro.simulation.workloads import UniformRandomWorkload, Workload, WorstCaseWorkload


def random_run_config(
    *,
    num_processes: int = 4,
    duration: float = 120.0,
    seed: int = 0,
    protocol: str = "fdas",
    collector: str = "rdt-lgc",
    collector_options: Optional[Mapping[str, object]] = None,
    crashes: int = 0,
    audit: str = "off",
    mean_message_gap: float = 2.0,
    mean_checkpoint_gap: float = 8.0,
    drop_probability: float = 0.0,
    workload: Optional[Workload] = None,
    keep_final_ccp: bool = True,
) -> SimulationConfig:
    """A complete configuration for one randomized experiment."""
    rng = random.Random(seed * 7919 + 13)
    failures = (
        FailureSchedule.random(
            num_processes=num_processes, duration=duration, count=crashes, rng=rng
        )
        if crashes
        else FailureSchedule.none()
    )
    if workload is None:
        workload = UniformRandomWorkload(
            mean_message_gap=mean_message_gap,
            mean_checkpoint_gap=mean_checkpoint_gap,
        )
    return SimulationConfig(
        num_processes=num_processes,
        duration=duration,
        workload=workload,
        protocol=protocol,
        collector=collector,
        collector_options=dict(collector_options or {}),
        network=NetworkConfig(drop_probability=drop_probability),
        failures=failures,
        seed=seed,
        audit=audit,
        keep_final_ccp=keep_final_ccp,
    )


def run_random_simulation(**kwargs) -> SimulationResult:
    """Build the configuration via :func:`random_run_config` and run it."""
    return run_simulation(random_run_config(**kwargs))


def run_worst_case(
    num_processes: int,
    *,
    collector: str = "rdt-lgc",
    protocol: str = "fdas",
    audit: str = "off",
    collector_options: Optional[Mapping[str, object]] = None,
) -> SimulationResult:
    """Run the Figure-5 worst-case schedule for ``num_processes`` processes."""
    workload = WorstCaseWorkload(round_length=10.0)
    config = SimulationConfig(
        num_processes=num_processes,
        duration=workload.required_duration(num_processes),
        workload=workload,
        protocol=protocol,
        collector=collector,
        collector_options=dict(collector_options or {}),
        seed=1,
        audit=audit,
        keep_final_ccp=True,
    )
    return run_simulation(config)


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------

#: Every collector the study sweeps, with the options it uses.
STUDY_COLLECTORS: Tuple[Tuple[str, Mapping[str, object]], ...] = (
    ("none", {}),
    ("rdt-lgc", {}),
    ("all-process-line", {"period": 20.0}),
    ("wang-coordinated", {"period": 20.0}),
    ("manivannan-singhal", {"checkpoint_period": 8.0, "max_message_delay": 3.0}),
)

#: The workload shapes of the evaluation study.
STUDY_WORKLOADS: Tuple[Tuple[str, Mapping[str, object]], ...] = (
    ("client-server", {}),
    ("pipeline", {}),
    ("uniform-random", {"mean_checkpoint_gap": 6.0}),
    ("ring", {}),
)

#: The topology-aware workload families (beyond the paper's four shapes):
#: Zipf-skewed client-server, gossip fan-out, and hierarchical region
#: clusters.  They share parameter defaults with the topology campaign so
#: the nightly grid, the ad-hoc CLI and the tests all run the same cells.
TOPOLOGY_WORKLOADS: Tuple[Tuple[str, Mapping[str, object]], ...] = (
    ("zipf-client-server", {"num_servers": 2}),
    ("gossip", {"fanout": 2}),
    ("hierarchical", {"region_size": 3}),
)


def paper_campaign_spec(
    *,
    num_processes: int = 4,
    duration: float = 120.0,
    num_seeds: int = 10,
    failure_counts: Sequence[int] = (0, 2),
    protocols: Sequence[str] = ("fdas",),
    base_seed: int = 0,
) -> CampaignSpec:
    """The paper's collector-comparison grid as a campaign.

    All five collectors × the four workload shapes × the requested failure
    rates × ``num_seeds`` seeded repetitions — the study Sections 5-6 of the
    paper report, sized by the caller.
    """
    return CampaignSpec(
        name="paper-collector-comparison",
        num_processes=num_processes,
        duration=duration,
        protocols=tuple(protocols),
        collectors=tuple(
            CollectorSpec.of(name, options) for name, options in STUDY_COLLECTORS
        ),
        workloads=tuple(
            WorkloadSpec.of(name, params) for name, params in STUDY_WORKLOADS
        ),
        failure_counts=tuple(failure_counts),
        seeds=tuple(range(num_seeds)),
        base_seed=base_seed,
    )


def fault_model_networks(
    *, num_processes: int = 4, duration: float = 120.0
) -> Tuple[NetworkConfig, ...]:
    """One :class:`NetworkConfig` per adversarial network regime.

    The regimes, from the paper's model outward: the uniform baseline;
    i.i.d. loss at 5%; Gilbert–Elliott bursty loss with the same *average*
    loss concentration but correlated into bursts; at-least-once delivery
    (duplicates); a per-link asymmetric latency matrix (two tight racks
    joined by a slow hop); a partition that splits the first two processes
    off mid-run and heals; and a FIFO-disciplined variant of the baseline
    (the one *restriction* in the family — the paper's channels reorder).
    """
    half = max(num_processes // 2, 1)
    # Two racks: intra-rack latency equals the baseline, the inter-rack hop
    # is 4x slower (and asymmetric: the return path is 6x).
    matrix = [
        [
            1.0 if (a < half) == (b < half) else (4.0 if a < half else 6.0)
            for b in range(num_processes)
        ]
        for a in range(num_processes)
    ]
    return (
        NetworkConfig(),
        NetworkConfig(drop_probability=0.05),
        NetworkConfig(
            channel=GilbertElliottChannel(
                loss_good=0.0, loss_bad=0.4, p_good_to_bad=0.05, p_bad_to_good=0.3
            )
        ),
        NetworkConfig(
            channel=DuplicatingChannel(
                channel=UniformChannel(), duplicate_probability=0.2
            )
        ),
        NetworkConfig(channel=LatencyMatrixChannel.of(matrix)),
        NetworkConfig(
            partitions=PartitionSchedule.of(
                [(duration / 3.0, duration * 2.0 / 3.0, ((0, 1),))]
            )
        ),
        NetworkConfig(fifo=True),
    )


def hierarchical_network_config(
    *,
    num_processes: int = 6,
    duration: float = 120.0,
    region_size: int = 3,
    inter_region_latency: float = 5.0,
    partition_window: bool = True,
) -> NetworkConfig:
    """The fault model matching the hierarchical workload's region layout.

    Regions are the same contiguous ``region_size`` blocks
    :meth:`repro.simulation.workloads.HierarchicalWorkload.region_of`
    computes (the last region absorbs the tail): intra-region links run at
    the baseline latency, inter-region hops at ``inter_region_latency``.
    With ``partition_window`` set, the first region is split off from the
    rest over the middle third of the run and heals — the regime where
    local checkpointing traffic continues while cross-region dependency
    knowledge is stalled.
    """
    if num_processes < 1:
        raise ValueError("the region layout needs at least one process")
    num_regions = max(num_processes // region_size, 1)

    def region_of(pid: int) -> int:
        return min(pid // region_size, num_regions - 1)

    matrix = [
        [
            1.0 if region_of(a) == region_of(b) else inter_region_latency
            for b in range(num_processes)
        ]
        for a in range(num_processes)
    ]
    partitions = None
    if partition_window and num_regions > 1:
        first_region = tuple(
            pid for pid in range(num_processes) if region_of(pid) == 0
        )
        partitions = PartitionSchedule.of(
            [(duration / 3.0, duration * 2.0 / 3.0, (first_region,))]
        )
    return NetworkConfig(
        channel=LatencyMatrixChannel.of(matrix), partitions=partitions
    )


def topology_campaign_spec(
    *,
    num_processes: int = 6,
    duration: float = 120.0,
    num_seeds: int = 3,
    collectors: Optional[Sequence[Tuple[str, Mapping[str, object]]]] = None,
    with_membership_churn: bool = True,
    base_seed: int = 0,
) -> CampaignSpec:
    """The topology-aware grid: skewed/gossip/hierarchical workload families.

    All three :data:`TOPOLOGY_WORKLOADS` × the chosen collectors over the
    region-structured network of :func:`hierarchical_network_config`, with
    (by default) a dynamic-membership axis next to the static baseline: one
    process joins a sixth of the way in and another departs at the halfway
    point, so every cell on that axis exercises a dormant slot joining *and*
    the departed-checkpoints-are-garbage obsolescence rule.
    """
    chosen = STUDY_COLLECTORS if collectors is None else tuple(collectors)
    memberships: Tuple[MembershipSchedule, ...] = (MembershipSchedule.static(),)
    if with_membership_churn:
        if num_processes < 3:
            raise ValueError("membership churn needs at least three processes")
        memberships = memberships + (
            MembershipSchedule.of(
                joins=[(duration / 6.0, num_processes - 1)],
                leaves=[(duration / 2.0, 1)],
            ),
        )
    return CampaignSpec(
        name="topology-families",
        num_processes=num_processes,
        duration=duration,
        collectors=tuple(CollectorSpec.of(name, options) for name, options in chosen),
        workloads=tuple(
            WorkloadSpec.of(name, params) for name, params in TOPOLOGY_WORKLOADS
        ),
        failure_counts=(0, 1),
        networks=(
            NetworkConfig(),
            hierarchical_network_config(
                num_processes=num_processes, duration=duration
            ),
        ),
        seeds=tuple(range(num_seeds)),
        base_seed=base_seed,
        memberships=memberships,
    )


def membership_churn_smoke_spec(*, num_seeds: int = 2) -> CampaignSpec:
    """A seconds-sized membership-churn campaign for the regression gate.

    One join and one leave per cell (the acceptance shape of the dynamic
    membership feature) across the optimality-claiming collector and a
    coordinated baseline, on a topology-aware and a uniform workload.
    """
    return CampaignSpec(
        name="membership-churn-smoke",
        num_processes=4,
        duration=40.0,
        collectors=(
            CollectorSpec.of("rdt-lgc"),
            CollectorSpec.of("all-process-line", {"period": 10.0}),
        ),
        workloads=(
            WorkloadSpec.of("uniform-random"),
            WorkloadSpec.of("zipf-client-server", {"num_servers": 1}),
        ),
        failure_counts=(0, 1),
        seeds=tuple(range(num_seeds)),
        memberships=(
            MembershipSchedule.of(joins=[(10.0, 3)], leaves=[(25.0, 1)]),
        ),
    )


def fault_model_campaign_spec(
    *,
    num_processes: int = 4,
    duration: float = 120.0,
    num_seeds: int = 5,
    collectors: Optional[Sequence[Tuple[str, Mapping[str, object]]]] = None,
    base_seed: int = 0,
) -> CampaignSpec:
    """Every collector crossed with every adversarial network regime.

    The grid beyond the paper: all collectors × the
    :func:`fault_model_networks` regimes × {no failures, crash-recovery
    churn} × ``num_seeds`` seeds, on the generic uniform-random workload.
    This is where the remaining collector-safety claims get falsified or
    confirmed — and where the coordinated baselines pay their real
    control-message cost under hostile transports.
    """
    chosen = STUDY_COLLECTORS if collectors is None else tuple(collectors)
    return CampaignSpec(
        name="fault-model-sweep",
        num_processes=num_processes,
        duration=duration,
        collectors=tuple(CollectorSpec.of(name, options) for name, options in chosen),
        workloads=(WorkloadSpec.of("uniform-random", {"mean_checkpoint_gap": 6.0}),),
        failure_counts=(
            0,
            FailureModelSpec.of("churn", {"hazard_rate": 0.02}),
        ),
        networks=fault_model_networks(
            num_processes=num_processes, duration=duration
        ),
        seeds=tuple(range(num_seeds)),
        base_seed=base_seed,
    )


def smoke_campaign_spec(*, num_seeds: int = 2) -> CampaignSpec:
    """A seconds-sized campaign with the paper grid's shape.

    Used by the tier-1 regression gate to exercise expansion, pool execution
    and aggregation cheaply: two collectors, two workloads, one failure level
    and ``num_seeds`` seeds at a short duration.
    """
    return CampaignSpec(
        name="smoke-collector-comparison",
        num_processes=3,
        duration=40.0,
        collectors=(
            CollectorSpec.of("rdt-lgc"),
            CollectorSpec.of("wang-coordinated", {"period": 15.0}),
        ),
        workloads=(
            WorkloadSpec.of("uniform-random"),
            WorkloadSpec.of("client-server"),
        ),
        failure_counts=(0, 1),
        seeds=tuple(range(num_seeds)),
    )


#: The options a collector explores with: every collector runs with its
#: assumptions *honoured* on the explorer's step-per-time-unit scale, since the
#: sweep's contract is "zero violations expected".  In particular
#: Manivannan–Singhal gets a window far above any explorer program length —
#: its violated-window failure mode is a *found counterexample* test
#: (tests/explore), not a sweep expectation.
_EXPLORE_OPTIONS: Mapping[str, Mapping[str, object]] = {
    **dict(STUDY_COLLECTORS),
    "manivannan-singhal": {"checkpoint_period": 50.0},
}


def explore_sweep_collectors(
    names: Sequence[str],
) -> Tuple[Tuple[str, Mapping[str, object]], ...]:
    """``names`` paired with the options the exploration grid runs each with
    (a canary or a collector the study does not sweep runs with none)."""
    return tuple((name, _EXPLORE_OPTIONS.get(name, {})) for name in names)


def explore_sweep_configs(
    *,
    num_processes: int = 2,
    messages: int = 6,
    protocols: Optional[Sequence[str]] = None,
    collectors: Optional[Sequence[Tuple[str, Mapping[str, object]]]] = None,
    with_crash: bool = False,
) -> Tuple["ExploreConfig", ...]:
    """The canonical schedule-exploration grid (campaign ``explore`` mode).

    One :class:`repro.explore.ExploreConfig` per (protocol, collector) pair
    over the ring program — the configuration family the acceptance sweep,
    the CI smoke gate, the nightly bounded sweep and ``python -m repro
    explore sweep`` all share.  Defaults to every protocol × every collector
    of :func:`~repro.gc.registry.available_collectors` (the canaries are not
    among them); crash mode inserts a process-0 crash before the final
    checkpoint round so every schedule exercises a recovery session.
    """
    from repro.explore.program import ExploreConfig, ring_program
    from repro.gc.registry import available_collectors
    from repro.protocols.registry import available_protocols

    program = ring_program(num_processes, messages, crash_pid=0 if with_crash else None)
    if protocols is None:
        protocols = available_protocols()
    if collectors is None:
        collectors = explore_sweep_collectors(available_collectors())
    return tuple(
        ExploreConfig(
            num_processes=num_processes,
            program=program,
            protocol=protocol,
            collector=name,
            collector_options=tuple(sorted(dict(options).items())),
        )
        for protocol in protocols
        for name, options in collectors
    )


def run_collector_comparison(
    spec: Optional[CampaignSpec] = None,
    *,
    workers: int = 1,
    store_path: Optional[str] = None,
    progress=None,
    group_by: Sequence[str] = ("workload", "collector", "failures"),
    metrics: Optional[Sequence[str]] = None,
) -> Tuple[CampaignRun, CampaignSummary]:
    """Run a collector-comparison campaign and aggregate it.

    Defaults to the full paper grid; pass :func:`smoke_campaign_spec` (or any
    custom spec) to change scope.  Returns the raw run and its per-``group_by``
    summary (default: workload × collector × failure level).
    """
    if spec is None:
        spec = paper_campaign_spec()
    run = run_campaign(spec, store_path=store_path, workers=workers, progress=progress)
    return run, aggregate_campaign(run.records, group_by=group_by, metrics=metrics)
