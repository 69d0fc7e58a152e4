"""Durable trace capture and replay.

Turns one-shot simulations into durable artifacts: a
:class:`~repro.traceio.writer.TraceWriter` streams everything a
:class:`repro.simulation.trace.TraceRecorder` observes to a versioned JSONL
file, and a :class:`~repro.traceio.reader.TraceReader` replays such a file
back into a fully-populated recorder — same event log, same checkpoint
dependency vectors, same CCP and analysis-cache results as the live run —
without re-executing the simulation.

Entry points:

* ``SimulationConfig(trace_path=...)`` — any single run persists its trace;
* ``run_campaign(spec, trace_dir=...)`` — every executed campaign cell
  persists one trace artifact next to the result store, re-aggregatable via
  :func:`~repro.traceio.reader.campaign_records_from_traces`;
* ``python -m repro trace`` — ``record`` / ``replay`` / ``inspect`` /
  ``diff`` from the shell (see :mod:`repro.traceio.cli`).
"""

from repro.traceio.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    TraceError,
    TraceFormatError,
    TraceTruncatedError,
    TraceVersionError,
    metrics_from_record,
    result_to_record,
)
from repro.traceio.reader import (
    ReplayedTrace,
    TraceReader,
    analysis_table,
    campaign_records_from_traces,
    verify_trace,
)
from repro.traceio.writer import TraceWriter

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ReplayedTrace",
    "TraceError",
    "TraceFormatError",
    "TraceReader",
    "TraceTruncatedError",
    "TraceVersionError",
    "TraceWriter",
    "analysis_table",
    "campaign_records_from_traces",
    "metrics_from_record",
    "result_to_record",
    "verify_trace",
]
