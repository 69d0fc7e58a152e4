"""Span tracing at the layer seams, installed from outside the program.

The benchmark's own wrappers go around the *public* functions of each layer
(class-attribute and module-attribute patching; nothing under ``src/``
changes).  They exist only during the single traced repetition of a
``--trace 1`` run: :func:`install` patches, the returned callable restores.

A span is ``(name_id, start, end, parent)`` with ``parent`` the index of the
span that was open when this one started (``-1`` for a top-level span).
Spans stay in memory; :meth:`Tracer.layer_totals` folds them into per-name
``calls`` / ``busy_s`` (inclusive) / ``self_s`` (busy minus the time covered
by child spans, from the parent links).
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span name, "module:Class.method" or "module:function", how)``.
#: ``how`` is ``"method"`` (that one class attribute), ``"hierarchy"`` (every
#: class of the hierarchy that defines the method itself — abstract bases
#: are implemented by concrete protocol/collector/channel classes) or
#: ``"function"`` (a module-level function, re-bound in every ``repro``
#: module that imported it by name).
SEAMS: Tuple[Tuple[str, str, str], ...] = (
    # Self time = workload generation + scheduling the actions + result assembly.
    ("runner.run", "repro.simulation.runner:SimulationRunner.run", "method"),
    ("engine.run", "repro.simulation.engine:SimulationEngine.run", "method"),
    ("network.send_app_message", "repro.simulation.network:Network.send_app_message", "method"),
    ("channel.sample", "repro.simulation.channels:ChannelModel.sample", "hierarchy"),
    ("node.send_message", "repro.simulation.node:SimulationNode.send_message", "method"),
    ("node.deliver", "repro.simulation.node:SimulationNode.deliver", "method"),
    ("node.take_checkpoint", "repro.simulation.node:SimulationNode.take_checkpoint", "method"),
    ("node.apply_rollback", "repro.simulation.node:SimulationNode.apply_rollback", "method"),
    (
        "protocol.should_force_checkpoint",
        "repro.protocols.base:CheckpointingProtocol.should_force_checkpoint",
        "hierarchy",
    ),
    ("collector.on_receive", "repro.gc.base:GarbageCollector.on_receive", "hierarchy"),
    (
        "collector.on_checkpoint_stored",
        "repro.gc.base:GarbageCollector.on_checkpoint_stored",
        "hierarchy",
    ),
    ("storage.store", "repro.storage.stable:StableStorage.store", "method"),
    ("storage.eliminate", "repro.storage.stable:StableStorage.eliminate", "method"),
    ("recorder.record_send", "repro.simulation.trace:TraceRecorder.record_send", "method"),
    ("recorder.record_receive", "repro.simulation.trace:TraceRecorder.record_receive", "method"),
    (
        "recorder.record_checkpoint",
        "repro.simulation.trace:TraceRecorder.record_checkpoint",
        "method",
    ),
    ("recorder.ccp", "repro.simulation.trace:TraceRecorder.ccp", "method"),
    ("recorder.apply_recovery", "repro.simulation.trace:TraceRecorder.apply_recovery", "method"),
    ("eventlog.add_send", "repro.causality.events:EventLog.add_send", "method"),
    ("eventlog.add_receive", "repro.causality.events:EventLog.add_receive", "method"),
    ("eventlog.add_checkpoint", "repro.causality.events:EventLog.add_checkpoint", "method"),
    ("sink.on_event", "repro.traceio.writer:TraceWriter.on_send", "method"),
    ("sink.on_event", "repro.traceio.writer:TraceWriter.on_receive", "method"),
    ("sink.on_event", "repro.traceio.writer:TraceWriter.on_checkpoint", "method"),
    ("sink.on_event", "repro.traceio.writer:TraceWriter.write_sample", "method"),
    ("sink.finalize", "repro.traceio.writer:TraceWriter.finalize", "method"),
    ("reader.replay", "repro.traceio.reader:TraceReader.replay", "method"),
    ("reader.verify_trace", "repro.traceio.reader:verify_trace", "function"),
    ("recovery.plan", "repro.recovery.manager:RecoveryManager.plan", "method"),
    (
        "audit.audit_garbage_collection",
        "repro.core.optimality:audit_garbage_collection",
        "function",
    ),
    ("campaign.cells", "repro.scenarios.campaign.spec:CampaignSpec.cells", "method"),
    ("campaign.execute_cell", "repro.scenarios.campaign.executor:execute_cell", "function"),
    ("campaign.aggregate", "repro.scenarios.campaign.aggregate:aggregate_campaign", "function"),
    ("sqlstore.load", "repro.scenarios.campaign.sqlstore:SQLResultStore.load", "method"),
    ("sqlstore.enqueue", "repro.scenarios.campaign.sqlstore:SQLResultStore.enqueue", "method"),
    ("sqlstore.append", "repro.scenarios.campaign.sqlstore:SQLResultStore.append", "method"),
    ("sqlstore.records", "repro.scenarios.campaign.sqlstore:SQLResultStore.records", "method"),
    ("explore.execute", "repro.explore.executor:ScheduleExecutor.execute", "method"),
    ("oracles.check_state", "repro.explore.oracles:OracleStack.check_state", "method"),
    ("fuzz.state_features", "repro.fuzz.coverage:state_features", "function"),
    ("fuzz.corpus_add", "repro.fuzz.corpus:Corpus.add", "method"),
)

#: Span names in first-appearance order (several seams may share a name).
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SEAMS))


class Tracer:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self, clock: Callable[[], float]) -> None:
        #: ``HostClock.wall``: the host-speed samples must not count as layer time.
        self._clock = clock
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.processed_events = 0
        self._open: List[int] = []

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` with one span recorded around every call."""
        name_id = SPAN_NAMES.index(name)
        spans, open_spans, clock = self.spans, self._open, self._clock

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def count_engine_events(self, run: Callable[..., Any]) -> Callable[..., Any]:
        """``SimulationEngine.run`` that also adds up the events it processed.

        ``api.run`` hands back results, not the engine, so the numerator of
        ``engine.events_per_msg`` is only reachable at this seam.
        """

        @functools.wraps(run)
        def counted(engine: Any, *args: Any, **kwargs: Any) -> Any:
            before = engine.processed_events
            try:
                return run(engine, *args, **kwargs)
            finally:
                self.processed_events += engine.processed_events - before

        return counted

    def layer_totals(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per-name ``calls``/``busy_s``/``self_s`` and the top-level busy sum.

        A span nested directly inside a span of the same name (a collector's
        ``super()`` call) adds to ``calls`` and ``self_s`` but not again to
        the inclusive ``busy_s``.
        """
        spans = [span for span in self.spans if span is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("a span was still open when the traced repetition ended")
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        top_level = 0.0
        for index, (name_id, start, end, parent) in enumerate(spans):
            row = totals[SPAN_NAMES[name_id]]
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[index]
            if parent < 0:
                top_level += end - start
            if parent < 0 or spans[parent][0] != name_id:
                row["busy_s"] += end - start
        return totals, top_level

    def document(self) -> Dict[str, Any]:
        """The raw spans, as written to ``results/trace-<workload>.json``."""
        return {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }


def _hierarchy(root: type) -> List[type]:
    classes, pending = [], [root]
    while pending:
        cls = pending.pop()
        if cls not in classes:
            classes.append(cls)
            pending.extend(cls.__subclasses__())
    return classes


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every seam with ``tracer``'s wrappers; returns the un-patcher."""
    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore() -> None:
        while patched:
            owner, attribute, original = patched.pop()
            setattr(owner, attribute, original)

    try:
        for name, target, how in SEAMS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            if how == "function":
                original = getattr(module, path)
                replacement = tracer.wrap(name, original)
                for other in list(sys.modules.values()):
                    if other is None or not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for attribute, value in list(vars(other).items()):
                        if value is original:
                            patch(other, attribute, replacement)
                continue
            class_name, _, method = path.partition(".")
            root = getattr(module, class_name)
            for cls in _hierarchy(root) if how == "hierarchy" else [root]:
                original = cls.__dict__.get(method)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                if name == "engine.run":
                    original = tracer.count_engine_events(original)
                patch(cls, method, tracer.wrap(name, original))
    except BaseException:
        restore()
        raise
    return restore
