"""Experiment orchestration: configuration, execution and results.

:class:`SimulationRunner` wires together the engine, network, trace recorder,
nodes (protocol + collector + storage), workload, failure injection and the
optional online audits, runs the experiment and returns a
:class:`SimulationResult` with everything the analysis layer and the
benchmarks need.

The recorder sits behind its readers.  A run whose log nobody reads — no
crash, no audit, no ``keep_final_ccp``, no join or leave — keeps its nodes'
``record_*`` occurrences in arrival order and never builds the event log;
the first read (:attr:`SimulationRunner.trace`,
:meth:`SimulationRunner.current_ccp`, a recovery session, a membership
change) applies them to the one :class:`TraceRecorder` through the calls the
nodes would have made, and from then on every occurrence is forwarded as it
happens.  A trace file is not a reader: the run's writer gets each
occurrence as it happens either way.  There is no option: what is read is
recorded and validated exactly as if it had been from the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traceio.writer import TraceWriter

from repro.ccp.pattern import CCP
from repro.core.optimality import GcAudit, audit_garbage_collection
from repro.gc.registry import check_collector
from repro.membership import MembershipSchedule
from repro.protocols.registry import available_protocols
from repro.recovery.manager import RecoveryManager
from repro.recovery.rollback_plan import RollbackPlan
from repro.simulation.engine import Callback, SimulationEngine
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import AppMessage, Network, NetworkConfig, PartitionEvent
from repro.simulation.node import SimulationNode, build_node
from repro.simulation.trace import TraceRecorder, TraceSink
from repro.simulation.workloads import Action, ActionKey, Workload
from repro.validation import SpecValidationError, check_choice, naming


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one run."""

    num_processes: int
    duration: float
    workload: Workload
    protocol: str = "fdas"
    collector: str = "rdt-lgc"
    collector_options: Mapping[str, Any] = field(default_factory=dict)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    failures: FailureSchedule = field(default_factory=FailureSchedule.none)
    seed: int = 0
    sample_interval: Optional[float] = None
    audit: str = "off"
    keep_final_ccp: bool = False
    #: When set, the run streams a replayable trace artifact to this path
    #: (see :mod:`repro.traceio`); ``trace_meta`` is free-form provenance
    #: persisted in the trace header (campaign cell identity and the like).
    trace_path: Optional[str] = None
    trace_meta: Mapping[str, Any] = field(default_factory=dict)
    #: Execution backend: ``"sim"`` (the discrete-event simulator) or
    #: ``"live"`` (real OS processes over UDP — see :mod:`repro.live`).
    #: Provenance (trace headers, campaign cell identity) mentions the
    #: backend only when it is not the default, so every pre-existing
    #: simulated artifact keeps its identity.
    backend: str = "sim"
    #: Membership events of the run.  ``num_processes`` is the *capacity*:
    #: pids with a scheduled join are dormant until their join time (their
    #: initial checkpoint ``s_i^0`` is stored when they join); a leave
    #: permanently retires the process and makes all its checkpoints
    #: garbage.  The default (no events) is the paper's static membership;
    #: like ``backend``, provenance mentions membership only when dynamic.
    membership: MembershipSchedule = field(default_factory=MembershipSchedule.static)

    def __post_init__(self) -> None:
        check_run(self.num_processes, self.duration, self.audit, self.backend, self.membership)
        check_choice("protocol", self.protocol, available_protocols())
        check_collector("collector", self.collector)
        if self.sample_interval is not None and not 0 < self.sample_interval < math.inf:
            raise SpecValidationError(
                "sample_interval",
                f"the sample interval must be positive and finite, got {self.sample_interval!r}",
            )
        # Fail fast on fault models that cannot serve this process count
        # (undersized latency matrices, partitions naming unknown pids).
        with naming("network"):
            self.network.validate_for(self.num_processes)
        for index, crash in enumerate(self.failures):
            # A dormant joiner's crash does not happen; one outside the run is a typo.
            if not (0 <= crash.pid < self.num_processes and 0 <= crash.time < self.duration):
                raise SpecValidationError(
                    f"failures[{index}]", f"{crash} is outside the run's processes or duration"
                )


#: The closed vocabularies of a run's ``audit`` and ``backend``.
AUDITS = ("off", "safety", "full")
BACKENDS = ("sim", "live")


def check_run(
    num_processes: int, duration: float, audit: str, backend: str, membership: MembershipSchedule,
    *, scope: str = "run", backend_field: str = "backend", membership_field: str = "membership",
) -> None:
    """The rules of every run, checked by :class:`SimulationConfig` and for
    each cell by :class:`~repro.scenarios.campaign.spec.CampaignSpec`, whose
    axes place the backend and membership fields (``backends[1]``)."""
    if num_processes <= 0:
        raise SpecValidationError("num_processes", f"a {scope} needs at least one process")
    if not 0 < duration < math.inf:
        raise SpecValidationError(
            "duration", f"the duration must be positive and finite, got {duration!r}"
        )
    check_choice("audit", audit, AUDITS)
    check_choice(backend_field, backend, BACKENDS)
    if backend == "live" and num_processes < 2:
        raise SpecValidationError("num_processes", "a live run needs at least two processes")
    with naming(membership_field):
        membership.validate_for(num_processes, duration, scope)
        if membership and backend != "sim":
            raise ValueError("dynamic membership runs on the 'sim' backend only")


@dataclass(frozen=True)
class StorageSample:
    """Storage occupancy at one sampling instant."""

    time: float
    retained_per_process: Tuple[int, ...]

    @property
    def total(self) -> int:
        """Total number of retained stable checkpoints across all processes."""
        return sum(self.retained_per_process)


@dataclass(frozen=True)
class RecoveryRecord:
    """Summary of one recovery session."""

    time: float
    faulty: Tuple[int, ...]
    recovery_line: Tuple[int, ...]
    rolled_back_processes: int
    lost_general_checkpoints: int
    collected_during_recovery: int

    @classmethod
    def of(
        cls, plan: RollbackPlan, ccp: CCP, *, time: float, collected: int
    ) -> "RecoveryRecord":
        """The summary of the session that executed ``plan`` on ``ccp``."""
        line = plan.recovery_line.indices
        return cls(
            time=time,
            faulty=plan.faulty,
            recovery_line=line,
            rolled_back_processes=len(plan.rollbacks),
            lost_general_checkpoints=sum(
                ccp.volatile_index(pid) - index for pid, index in enumerate(line)
            ),
            collected_during_recovery=collected,
        )


@dataclass(frozen=True)
class AuditRecord:
    """Result of one online audit."""

    time: float
    label: str
    is_safe: bool
    is_optimal: bool
    safety_violations: int
    optimality_violations: int

    @classmethod
    def of(cls, audit: GcAudit, *, time: float, label: str) -> "AuditRecord":
        """The summary of one :class:`~repro.core.optimality.GcAudit`."""
        return cls(
            time=time,
            label=label,
            is_safe=audit.is_safe,
            is_optimal=audit.is_optimal,
            safety_violations=len(audit.safety_violations),
            optimality_violations=len(audit.optimality_violations),
        )


@dataclass
class SimulationResult:
    """Everything measured during one run."""

    config: SimulationConfig
    protocol: str
    collector: str
    duration: float
    basic_checkpoints: int
    forced_checkpoints: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    control_messages: int
    total_collected: int
    retained_final: Tuple[int, ...]
    max_retained_per_process: Tuple[int, ...]
    total_stored: int
    samples: List[StorageSample]
    recoveries: List[RecoveryRecord]
    audits: List[AuditRecord]
    messages_duplicated: int = 0
    messages_blocked_by_partition: int = 0
    final_ccp: Optional[CCP] = None

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def total_checkpoints(self) -> int:
        """All checkpoints taken (basic plus forced)."""
        return self.basic_checkpoints + self.forced_checkpoints

    @property
    def total_retained_final(self) -> int:
        """Stable checkpoints left on storage at the end of the run."""
        return sum(self.retained_final)

    @property
    def max_retained_any_process(self) -> int:
        """The worst per-process high-water mark observed."""
        return max(self.max_retained_per_process) if self.max_retained_per_process else 0

    @property
    def peak_total_retained(self) -> int:
        """The largest sampled global storage occupancy."""
        if not self.samples:
            return self.total_retained_final
        return max(sample.total for sample in self.samples)

    @property
    def collection_ratio(self) -> float:
        """Fraction of stored checkpoints eventually collected."""
        if self.total_stored == 0:
            return 0.0
        return self.total_collected / self.total_stored

    @property
    def all_audits_safe(self) -> bool:
        """True if no audit observed a safety violation."""
        return all(audit.is_safe for audit in self.audits)

    @property
    def all_audits_optimal(self) -> bool:
        """True if no audit observed an optimality violation."""
        return all(audit.is_optimal for audit in self.audits)

    def metrics_dict(self) -> Dict[str, float]:
        """The scalar per-run metrics persisted by campaign stores and traces."""
        return metrics_from_record(result_to_record(self))

    def summary(self) -> Dict[str, Any]:
        """A flat dictionary of the headline numbers (used by report tables)."""
        return {
            "protocol": self.protocol,
            "collector": self.collector,
            "processes": self.config.num_processes,
            "checkpoints": self.total_checkpoints,
            "forced": self.forced_checkpoints,
            "messages": self.messages_sent,
            "control_messages": self.control_messages,
            "collected": self.total_collected,
            "retained_final": self.total_retained_final,
            "max_retained_per_process": self.max_retained_any_process,
            "peak_total_retained": self.peak_total_retained,
            "collection_ratio": round(self.collection_ratio, 4),
            "recoveries": len(self.recoveries),
        }


def result_to_record(result: SimulationResult) -> Dict[str, Any]:
    """The scalar result record persisted in a trace footer.

    Everything a consumer needs to re-derive the per-run metrics without
    re-simulation, including the sample-derived peak (the samples are
    streamed as ``S`` records, but the peak is stored so metrics survive
    even a trace whose samples were pruned).
    """
    return {
        "protocol": result.protocol,
        "collector": result.collector,
        "duration": result.duration,
        "basic_checkpoints": result.basic_checkpoints,
        "forced_checkpoints": result.forced_checkpoints,
        "messages_sent": result.messages_sent,
        "messages_delivered": result.messages_delivered,
        "messages_dropped": result.messages_dropped,
        "messages_duplicated": result.messages_duplicated,
        "messages_blocked_by_partition": result.messages_blocked_by_partition,
        "control_messages": result.control_messages,
        "total_collected": result.total_collected,
        "retained_final": list(result.retained_final),
        "max_retained_per_process": list(result.max_retained_per_process),
        "total_stored": result.total_stored,
        "peak_total_retained": result.peak_total_retained,
        "collection_ratio": result.collection_ratio,
        "recoveries": len(result.recoveries),
        "audits": len(result.audits),
        "all_audits_safe": result.all_audits_safe,
        "all_audits_optimal": result.all_audits_optimal,
    }


#: The per-run metrics, in persisted order: name → derivation from a result
#: record (:func:`result_to_record`).  The one list of metric names —
#: campaign stores, aggregates and trace footers all read it.
_METRICS: Dict[str, Callable[[Mapping[str, Any]], Optional[float]]] = {
    "checkpoints": lambda r: r["basic_checkpoints"] + r["forced_checkpoints"],
    "basic": lambda r: r["basic_checkpoints"],
    "forced": lambda r: r["forced_checkpoints"],
    "messages": lambda r: r["messages_sent"],
    "control": lambda r: r["control_messages"],
    "collected": lambda r: r["total_collected"],
    "final_retained": lambda r: sum(r["retained_final"]),
    "max_per_process": lambda r: max(r["max_retained_per_process"], default=0),
    "peak_retained": lambda r: r["peak_total_retained"],
    "collection_ratio": lambda r: r["collection_ratio"],
    "recoveries": lambda r: r["recoveries"],
    # Version-1 result records predate the two fault-model counters: a
    # metric whose source is absent is left out, which keeps v1 footers
    # verifying (their stored metrics lack the keys too).
    "duplicated": lambda r: r.get("messages_duplicated"),
    "partition_blocked": lambda r: r.get("messages_blocked_by_partition"),
}
METRIC_NAMES: Tuple[str, ...] = tuple(_METRICS)


def metrics_from_record(record: Mapping[str, Any]) -> Dict[str, float]:
    """The per-run metrics of a result record (live, or read from a footer).

    Being the one derivation is what lets a campaign be re-aggregated from
    its trace artifacts alone with byte-identical output.
    """
    derived = ((name, derive(record)) for name, derive in _METRICS.items())
    return {name: value for name, value in derived if value is not None}


class _ReadOnDemandRecorder:
    """The nodes' :class:`~repro.transport.TraceRecorderPort` on a run nobody reads yet.

    Keeps the four ``record_*`` occurrences in arrival order instead of
    building the log, handing each to ``sink`` (the run's trace writer, if
    any) as it happens; :meth:`read` applies them to the recorder through the
    very calls the nodes would have made (so validation, tracker and version
    behave as on an eager run), attaches the sink to it once and hands the
    recorder out.  The switch is one-way: from the first read on every call
    is forwarded as it happens, so a recorder reference taken early never
    shows a stale log.

    Writing before the recorder validated is safe: until the first read it
    refuses nothing the nodes send — a node refuses self-sends and unknown
    destinations itself, a receive follows its send, nothing is rolled back
    or compacted yet and the membership has not changed (joins and leaves,
    like both of those, are reads), and an action fires only if every pid it
    touches is a member.  A refusal all the same surfaces at the first read
    and fails the run.
    """

    def __init__(self, recorder: TraceRecorder, sink: Optional[TraceSink]) -> None:
        self._recorder = recorder
        self._sink = sink
        #: ``(recorder method name, *arguments)`` per occurrence; None once read.
        self._kept: Optional[List[Tuple[Any, ...]]] = []

    def record_send(
        self, sender: int, receiver: int, message_id: int, time: float
    ) -> None:
        if self._kept is None:
            self._recorder.record_send(sender, receiver, message_id, time)
        else:
            self._kept.append(("record_send", sender, receiver, message_id, time))
            if self._sink is not None:
                self._sink.on_send(sender, receiver, message_id, time)

    def record_receive(self, message_id: int, time: float) -> None:
        if self._kept is None:
            self._recorder.record_receive(message_id, time)
        else:
            self._kept.append(("record_receive", message_id, time))
            if self._sink is not None:
                self._sink.on_receive(message_id, time)

    def record_duplicate_receive(self, message_id: int, time: float) -> None:
        if self._kept is None:
            self._recorder.record_duplicate_receive(message_id, time)
        else:
            self._kept.append(("record_duplicate_receive", message_id, time))
            if self._sink is not None:
                self._sink.on_duplicate_receive(message_id, time)

    def record_checkpoint(
        self,
        pid: int,
        index: int,
        dependency_vector: Sequence[int],
        *,
        forced: bool,
        time: float,
    ) -> None:
        if self._kept is None:
            self._recorder.record_checkpoint(
                pid, index, dependency_vector, forced=forced, time=time
            )
        else:
            # The node hands over the immutable snapshot it also stored.
            self._kept.append(("record_checkpoint", pid, index, dependency_vector, forced, time))
            if self._sink is not None:
                self._sink.on_checkpoint(pid, index, dependency_vector, forced=forced, time=time)

    def read(self) -> TraceRecorder:
        """The recorder, brought up to date with everything kept so far."""
        kept, self._kept = self._kept, None
        if kept is None:
            return self._recorder
        refused: Optional[Exception] = None
        for name, *arguments in kept:
            try:
                if name == "record_checkpoint":
                    pid, index, vector, forced, time = arguments
                    self._recorder.record_checkpoint(
                        pid, index, vector, forced=forced, time=time
                    )
                else:
                    getattr(self._recorder, name)(*arguments)
            except Exception as error:
                # An eager run would have died of the first refusal: it is
                # re-raised, once the occurrences behind it reached the
                # recorder too (the port is already forwarding).
                if refused is None:
                    refused = error
        # The sink holds the kept occurrences already: it hears what follows.
        if self._sink is not None:
            self._recorder.attach_sink(self._sink)
        if refused is not None:
            raise refused
        return self._recorder

    def close(self) -> None:
        """Let go of the kept occurrences, the recorder and the sink: the run is over."""
        self._kept = self._sink = None
        del self._recorder


class SimulationRunner:
    """Builds and runs one experiment from a :class:`SimulationConfig`.

    The run's occurrences reach the :class:`TraceRecorder` at the first read
    (:attr:`trace`, :meth:`current_ccp`, a recovery session, a join or a
    leave): a run whose log nobody reads does not build it, and its trace
    writer, if any, is fed the occurrences as they happen without it.
    """

    def __init__(self, config: SimulationConfig) -> None:
        if config.backend != "sim":
            raise ValueError(
                f"SimulationRunner drives the 'sim' backend only; use "
                f"run_simulation() to dispatch backend {config.backend!r}"
            )
        self._config = config
        self._engine = SimulationEngine(seed=config.seed)
        self._network = Network(self._engine, config.network)
        self._trace = TraceRecorder(
            config.num_processes,
            initial_members=config.membership.initial_members(config.num_processes),
        )
        self._recovery_manager = RecoveryManager()
        self._nodes: List[SimulationNode] = []
        self._samples: List[StorageSample] = []
        self._recoveries: List[RecoveryRecord] = []
        self._audits: List[AuditRecord] = []
        self._writer: Optional["TraceWriter"] = None
        self._closed = False
        if config.trace_path is not None:
            # Imported lazily: repro.traceio sits above the simulation layer.
            from repro.traceio.writer import TraceWriter

            self._writer = TraceWriter(config.trace_path, config)
        self._unread = _ReadOnDemandRecorder(self._trace, self._writer)
        try:
            self._nodes = [
                build_node(
                    pid,
                    config.num_processes,
                    protocol=config.protocol,
                    collector=config.collector,
                    collector_options=config.collector_options,
                    transport=self._network,
                    trace=self._unread,
                )
                for pid in range(config.num_processes)
            ]
            self._network.on_app_delivery(self._deliver_app)
            self._network.on_duplicate_delivery(self._deliver_duplicate)
            self._network.on_control_delivery(self._deliver_control)
            if self._writer is not None:
                self._network.on_partition_event(self._record_partition_event)
        except BaseException as exc:
            # Seal the trace instead of leaking a header-only artifact when
            # construction fails (unknown collector name, bad workload, …).
            if self._writer is not None and not self._writer.closed:
                self._writer.abort(f"{type(exc).__name__}: {exc}")
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[SimulationNode]:
        """The simulated processes (useful for tests and custom drivers)."""
        return self._nodes

    @property
    def engine(self) -> SimulationEngine:
        """The simulation engine."""
        return self._engine

    @property
    def network(self) -> Network:
        """The transport the nodes run on (custom drivers, the explorer)."""
        return self._network

    @property
    def trace(self) -> TraceRecorder:
        """The global trace recorder, holding every occurrence up to now."""
        self._require_open()
        return self._unread.read()

    @property
    def recoveries(self) -> List[RecoveryRecord]:
        """The recovery sessions executed so far (in order)."""
        return self._recoveries

    # ------------------------------------------------------------------
    # Delivery plumbing
    # ------------------------------------------------------------------
    def _deliver_app(self, message: AppMessage) -> None:
        self._nodes[message.receiver].deliver(message)

    def _deliver_duplicate(self, message: AppMessage) -> None:
        self._nodes[message.receiver].deliver_duplicate(message)

    def _deliver_control(self, sender: int, receiver: int, payload: Any) -> None:
        self._nodes[receiver].collector.on_control_message(
            sender, payload, self._engine.now
        )

    def _record_partition_event(self, event: PartitionEvent) -> None:
        time, kind, groups = event
        assert self._writer is not None
        self._writer.write_partition_event(kind, time, groups)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the configured experiment and return its results.

        With :attr:`SimulationConfig.trace_path` set, the run's trace streams
        to disk as it happens and is sealed with a footer on completion; a
        run that raises seals the trace as ``aborted`` instead (still
        replayable up to the failure point) and re-raises.
        """
        self._require_open()
        try:
            result = self._run()
        except BaseException as exc:
            if self._writer is not None and not self._writer.closed:
                self._writer.abort(f"{type(exc).__name__}: {exc}")
            raise
        if self._writer is not None:
            self._writer.finalize(
                result,
                final_volatile_dvs=[node.current_dv for node in self._nodes],
            )
        return result

    def close(self) -> None:
        """Release what the finished run holds (idempotent).

        A run's objects reference each other — node and control plane,
        ``UC`` and collector, the network's handlers and this runner — so
        without this they wait for the cyclic collector's next full pass.
        The port's kept occurrences and recorder, the network's link state
        and in-flight copies go now; the samples, recoveries and audits a
        :class:`SimulationResult` shares stay.  Afterwards :meth:`run`,
        :attr:`trace` and :meth:`current_ccp` raise :class:`RuntimeError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._writer is not None and not self._writer.closed:
            self._writer.abort("the runner was closed before its run finished")
        self._unread.close()
        self._network.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the simulation runner is closed: its run was released")

    def _run(self) -> SimulationResult:
        config = self._config
        members = config.membership.initial_members(config.num_processes)
        for node in self._nodes:
            # Joiners are dormant: their initial checkpoint s_i^0 is stored
            # at join time, not at time 0.
            if node.pid in members:
                node.start()
        for event in config.membership:
            if event.kind == "join":
                handler = lambda pid=event.pid: self._handle_join(pid)
            else:
                handler = lambda pid=event.pid: self._handle_leave(pid)
            self._engine.schedule_at(event.time, handler)
        # Static membership passes no view: nothing to check at fire time.
        acting_members = self._trace.membership if config.membership else None
        nodes = self._nodes
        # Every action that repeats a (pid, kind, target) shares its handler.
        handlers: Dict[Tuple[int, str, int], Callback] = {}

        def entry(key: ActionKey) -> Tuple[float, Callback]:
            handler = handlers.get(key[1:])
            if handler is None:
                handler = handlers[key[1:]] = nodes[key[1]].action_handler(
                    Action.of_key(key), acting_members
                )
            return key[0], handler

        # The workload's keys are in time order: they are streamed beside the
        # engine's heap, and the list does not outlive this statement.
        self._engine.schedule_sorted(
            map(
                entry,
                config.workload.keys(config.num_processes, config.duration, self._engine.rng),
            )
        )
        for crash in config.failures:
            self._engine.schedule_at(
                crash.time, lambda pid=crash.pid: self._handle_crash(pid)
            )
        sample_interval = config.sample_interval
        if sample_interval is None:
            sample_interval = max(config.duration / 50.0, 1.0)
        self._schedule_sampling(sample_interval)
        self._engine.run(until=config.duration)
        self._take_sample()
        if config.audit != "off":
            self._run_audit("final")
        return self._build_result()

    # ------------------------------------------------------------------
    # Sampling and audits
    # ------------------------------------------------------------------
    def _schedule_sampling(self, interval: float) -> None:
        def sample_and_reschedule() -> None:
            self._take_sample()
            if self._engine.now + interval <= self._config.duration:
                self._engine.schedule_after(interval, sample_and_reschedule)

        self._engine.schedule_after(interval, sample_and_reschedule)

    def _take_sample(self) -> None:
        sample = StorageSample(
            time=self._engine.now,
            retained_per_process=tuple(
                node.storage.retained_count() for node in self._nodes
            ),
        )
        self._samples.append(sample)
        if self._writer is not None:
            self._writer.write_sample(sample.time, sample.retained_per_process)

    def current_ccp(self) -> CCP:
        """The CCP of the execution recorded so far.

        Served from the trace recorder's substrate: the pattern (and its
        attached analysis cache) is only rebuilt when the recorded execution
        actually changed since the previous call.
        """
        volatile = {node.pid: node.current_dv for node in self._nodes}
        return self.trace.ccp(volatile_dvs=volatile)

    def _run_audit(self, label: str) -> GcAudit:
        ccp = self.current_ccp()
        retained = {node.pid: node.storage.retained_indices() for node in self._nodes}
        audit = audit_garbage_collection(
            ccp, retained, require_optimality=self._config.audit == "full"
        )
        self._audits.append(AuditRecord.of(audit, time=self._engine.now, label=label))
        return audit

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------
    def _handle_join(self, pid: int) -> None:
        """Process ``pid`` joins the membership now.

        The recorder's membership view admits the pid first (rejecting
        double joins), then the node stores its initial checkpoint
        ``s_pid^0`` — the paper's model requires every process to begin
        with a stable checkpoint, which for a joiner happens at join time.
        """
        self.trace.record_join(pid, self._engine.now)
        self._nodes[pid].start()

    def _handle_leave(self, pid: int) -> None:
        """Process ``pid`` permanently leaves the membership now.

        Departure order matters: the node retires first (eliminating every
        stable checkpoint through the collector, so elimination listeners
        fire while the pid is still a member), in-flight messages to and
        from the leaver are discarded, the trace records the leave, and
        surviving collectors hear about the departure last.
        """
        self._nodes[pid].depart()
        self._network.drop_in_flight_for(pid)
        self.trace.record_leave(pid, self._engine.now)
        members = self._trace.membership
        for peer in self._nodes:
            if peer.pid != pid and members.is_member(peer.pid):
                peer.collector.on_peer_departure(pid)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def inject_crash(self, pid: int) -> None:
        """Crash ``pid`` now and run the full recovery session.

        Public entry point for external drivers (the schedule-space
        explorer); scheduled failure injection goes through the same path.
        """
        self._handle_crash(pid)

    def _handle_crash(self, pid: int) -> None:
        if not self._trace.membership.is_member(pid):
            # A dormant process has no state to lose and a departed one can
            # never be faulty: the scheduled crash does not happen.
            return
        node = self._nodes[pid]
        if node.storage.retained_count() == 0:
            raise RuntimeError(f"process {pid} crashed before storing any checkpoint")
        node.crash()
        self._network.drop_in_flight()
        ccp = self.current_ccp()
        plan = self._recovery_manager.plan(ccp, [pid])
        collected = 0
        members = self._trace.membership
        for process in self._nodes:
            if process.pid != pid and not members.is_member(process.pid):
                # Dormant and departed processes take no part in the
                # recovery session (their line component is their volatile
                # index by construction).
                continue
            directive = plan.rollback_for(process.pid)
            if directive is not None:
                collected += len(
                    process.apply_rollback(
                        directive.rollback_index, plan.last_interval_vector
                    )
                )
            else:
                collected += len(
                    process.apply_peer_rollback(plan.last_interval_vector)
                )
        self.trace.apply_recovery(plan)
        self._recoveries.append(
            RecoveryRecord.of(plan, ccp, time=self._engine.now, collected=collected)
        )
        if self._config.audit != "off":
            self._run_audit(f"after-recovery@{self._engine.now:.1f}")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _build_result(self) -> SimulationResult:
        config = self._config
        stats = self._network.stats
        final_ccp = self.current_ccp() if config.keep_final_ccp else None
        control_messages = stats.control_sent
        return SimulationResult(
            config=config,
            protocol=config.protocol,
            collector=config.collector,
            duration=config.duration,
            basic_checkpoints=sum(node.basic_checkpoints for node in self._nodes),
            forced_checkpoints=sum(node.forced_checkpoints for node in self._nodes),
            messages_sent=stats.app_sent,
            messages_delivered=stats.app_delivered,
            messages_dropped=stats.app_dropped,
            messages_duplicated=stats.app_duplicates_delivered,
            messages_blocked_by_partition=stats.app_blocked_by_partition,
            control_messages=control_messages,
            total_collected=sum(
                node.storage.total_eliminated() for node in self._nodes
            ),
            retained_final=tuple(
                node.storage.retained_count() for node in self._nodes
            ),
            max_retained_per_process=tuple(
                node.storage.max_retained() for node in self._nodes
            ),
            total_stored=sum(node.storage.total_stored() for node in self._nodes),
            samples=self._samples,
            recoveries=self._recoveries,
            audits=self._audits,
            final_ccp=final_ccp,
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run ``config`` on its selected backend and return the result.

    ``backend="sim"`` builds a :class:`SimulationRunner`; ``backend="live"``
    dispatches to :func:`repro.live.run_live` (imported lazily —
    :mod:`repro.live` sits above the simulation layer), which executes the
    run on real OS processes and returns an equivalent result assembled from
    the merged trace artifact.
    """
    if config.backend == "live":
        from repro.live import run_live

        return run_live(config).result
    runner = SimulationRunner(config)
    try:
        return runner.run()
    finally:
        # Freed now, not at the cyclic collector's next full pass.
        runner.close()
