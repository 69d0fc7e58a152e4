"""The v2 line codec: same bytes, same errors, same durability.

``repro.traceio.format`` formats the hot records directly and parses lines
with the bare C scanner; these tests pin both to what ``json.dumps(...,
separators=(",", ":"))`` writes and ``json.loads`` accepts, pin the
hand-to-the-OS-per-record write with a writer that SIGKILLs itself, and hold
the two boundary bugs fixed along the way (a garbled record tag, a header
that cannot be built).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.live.shard import ShardWriter, read_shard
from repro.scenarios.experiments import random_run_config
from repro.simulation.network import NetworkConfig
from repro.simulation.runner import SimulationRunner
from repro.traceio import (
    TraceFormatError,
    TraceReader,
    TraceTruncatedError,
    TraceWriter,
    verify_trace,
)
from repro.traceio.format import decode_line

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _dumps(document) -> bytes:
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


# ----------------------------------------------------------------------
# Write side: the bytes are json.dumps' bytes
# ----------------------------------------------------------------------
class Ordinal(int):
    """An ``int`` subclass; ``json`` writes it with ``int.__repr__``."""

    def __repr__(self) -> str:
        return f"Ordinal({int(self)})"


_numbers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 3.0, -7.0, 1e16, 1e22, 1e-7]
    ),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.booleans(),
    st.integers(-5, 5).map(Ordinal),
    st.just(Fraction(1, 2)),  # not JSON-serialisable: both sides must raise
)
_vectors = st.lists(_numbers, max_size=5)


def _plan(faulty, line, rollbacks, last_interval):
    return SimpleNamespace(
        faulty=faulty,
        recovery_line=SimpleNamespace(indices=line),
        rollbacks=[SimpleNamespace(pid=p, rollback_index=i) for p, i in rollbacks],
        last_interval_vector=last_interval,
    )


#: One ``(call on the writer, the record it must persist)`` pair per shape.
_trace_calls = st.one_of(
    st.tuples(_numbers, _numbers, _numbers, _numbers).map(
        lambda a: (lambda w: w.on_send(*a), ["s", *a])
    ),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.on_receive(*a), ["r", *a])),
    st.tuples(_numbers, _numbers).map(
        lambda a: (lambda w: w.on_duplicate_receive(*a), ["d", *a])
    ),
    st.tuples(_numbers, _numbers, _numbers, _numbers, _vectors).map(
        lambda a: (
            lambda w: w.on_checkpoint(a[0], a[1], tuple(a[4]), forced=a[2], time=a[3]),
            ["c", a[0], a[1], 1 if a[2] else 0, a[3], a[4]],
        )
    ),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.on_internal(*a), ["i", *a])),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.on_join(*a), ["j", *a])),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.on_leave(*a), ["l", *a])),
    st.tuples(_numbers, _vectors).map(
        lambda a: (lambda w: w.write_sample(a[0], tuple(a[1])), ["S", *a])
    ),
    st.tuples(st.text(max_size=4), _numbers, st.lists(_vectors, max_size=3)).map(
        lambda a: (lambda w: w.write_partition_event(*a), ["p", *a])
    ),
    st.tuples(
        _vectors, _vectors, st.lists(st.tuples(_numbers, _numbers), max_size=3), _vectors
    ).map(
        lambda a: (
            lambda w: w.on_recovery(_plan(*a)),
            ["v", a[0], a[1], [list(pair) for pair in a[2]], a[3]],
        )
    ),
)

_shard_calls = st.one_of(
    st.tuples(_numbers, _numbers, _numbers, _numbers).map(
        lambda a: (lambda w: w.record_send(*a), ["s", *a])
    ),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.record_receive(*a), ["r", *a])),
    st.tuples(_numbers, _numbers).map(
        lambda a: (lambda w: w.record_duplicate_receive(*a), ["d", *a])
    ),
    st.tuples(_numbers, _numbers, _numbers, _numbers, _vectors).map(
        lambda a: (
            lambda w: w.record_checkpoint(a[0], a[1], a[4], forced=a[2], time=a[3]),
            ["c", a[0], a[1], 1 if a[2] else 0, a[3], a[4]],
        )
    ),
    st.tuples(_numbers, _numbers).map(lambda a: (lambda w: w.record_internal(*a), ["i", *a])),
    st.tuples(_numbers, _numbers).map(
        lambda a: (lambda w: w.record_elimination(*a), ["e", *a])
    ),
)


def _appended(path, call, writer) -> bytes:
    """What ``call`` added to ``path`` — read while the writer is still open."""
    before = os.path.getsize(path)
    call(writer)
    with open(path, "rb") as handle:
        handle.seek(before)
        return handle.read()


class TestWriterBytesAreJsonDumpsBytes:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("codec") / "w.trace.jsonl")
        writer = TraceWriter.scripted(path, 2)
        yield path, writer
        writer.close()

    @pytest.fixture(scope="class")
    def shard(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("codec") / "w.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2, epoch=3)
        yield path, writer
        writer.close()

    @settings(max_examples=400, deadline=None)
    @given(case=_trace_calls)
    def test_every_trace_record_shape(self, trace, case):
        path, writer = trace
        call, record = case
        try:
            expected = _dumps(record)
        except Exception as exc:
            size = os.path.getsize(path)
            with pytest.raises(type(exc)):
                call(writer)
            assert os.path.getsize(path) == size
        else:
            assert _appended(path, call, writer) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=_shard_calls)
    def test_every_shard_record_shape(self, shard, case):
        path, writer = shard
        call, record = case
        try:
            json.dumps(record)
        except Exception as exc:
            with pytest.raises(type(exc)):
                call(writer)
        else:
            appended = _appended(path, call, writer)
            assert appended == _dumps([writer.epoch, writer.lamport, record])

    def test_header_and_footer_lines(self, tmp_path):
        path = str(tmp_path / "hf.trace.jsonl")
        header = {"format": "repro-trace", "version": 2, "num_processes": 1, "meta": {"é": 1.5}}
        writer = TraceWriter(path, header=header)
        writer.abort("boom — ☃")
        with open(path, "rb") as handle:
            first, last = handle.read().splitlines(keepends=True)
        assert first == _dumps(header)
        assert last == _dumps(
            {"footer": {"records": 0, "events": 0, "status": "aborted", "error": "boom — ☃"}}
        )


# ----------------------------------------------------------------------
# Read side: the lines are json.loads' lines
# ----------------------------------------------------------------------
def _reference_lines(path):
    """``TraceReader.lines`` as it was when it called ``json.loads`` per line."""
    bad = None
    with open(path, "r", encoding="utf-8") as handle:
        for index, raw in enumerate(handle):
            stripped = raw.strip()
            if not stripped:
                continue
            if bad is not None:
                raise TraceFormatError(f"{path}:{bad}: unparseable line")
            try:
                parsed = json.loads(stripped)
            except json.JSONDecodeError:
                bad = index + 1
                continue
            yield index + 1, parsed
    if bad is not None:
        raise TraceTruncatedError(
            f"{path}: half-written final line (record {bad}) — the writer was killed"
        )


def _outcome(lines):
    """Everything a consumer of ``lines`` can observe, comparable by ``==``."""
    seen = []
    try:
        for pair in lines:
            seen.append(repr(pair))  # repr: NaN compares unequal to itself
    except (TraceFormatError, TraceTruncatedError) as exc:
        return seen, type(exc), str(exc)
    return seen, None, ""


class TestReaderAcceptsWhatJsonLoadsAccepts:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("codec") / "valid.trace.jsonl")
        config = dataclasses.replace(
            random_run_config(seed=3, crashes=1, keep_final_ccp=False), trace_path=path
        )
        SimulationRunner(config).run()
        with open(path, "rb") as handle:
            return handle.read()

    def _damaged_files(self, valid):
        lines = valid.splitlines(keepends=True)
        middle = len(lines) // 2
        tail = sum(len(line) for line in lines[-3:])
        for cut in range(len(valid) - tail, len(valid) + 1):
            yield f"truncated at byte {cut}", valid[:cut]

        def spliced(*inserted):
            return b"".join(lines[:middle] + list(inserted) + lines[middle:])

        yield "garbage line", spliced(b"{not json}\n")
        yield "torn interior line", spliced(lines[middle][: len(lines[middle]) // 2] + b"\n")
        yield "two records on one line", spliced(lines[middle].rstrip(b"\n") + lines[middle])
        yield "two records, comma", spliced(b"[5],[6]\n")
        yield "an array split over two lines", spliced(b"[1,[2]\n", b"[3]]\n")
        yield "trailing junk", spliced(lines[middle].rstrip(b"\n") + b" x\n")
        yield "trailing comma", spliced(lines[middle].rstrip(b"\n") + b",\n")
        yield "blank lines", spliced(b"\n", b"   \n", b"\t\r\n")
        yield "padded line", spliced(b"  \t" + lines[middle].rstrip(b"\n") + b"  \r\n")
        yield "unicode padding", spliced("\u00a0[1]\u2003\n".encode())
        yield "NaN literals", spliced(b'["S",NaN,[Infinity,-Infinity]]\n')
        yield "bare scalars", spliced(b"12\n", b'"s"\n', b"null\n", b"-\n")
        yield "byte order mark", spliced("\ufeff[1]\n".encode())
        yield "garbage last line", valid + b"{not json}\n"
        yield "garbage first line", b"{not json}\n" + valid
        yield "no final newline", valid.rstrip(b"\n")
        yield "empty file", b""

    def test_damaged_traces_read_identically(self, valid, tmp_path):
        path = str(tmp_path / "damaged.trace.jsonl")
        outcomes = set()
        for label, content in self._damaged_files(valid):
            with open(path, "wb") as handle:
                handle.write(content)
            expected = _outcome(_reference_lines(path))
            assert _outcome(TraceReader(path).lines()) == expected, label
            outcomes.add(expected[1])
        assert outcomes == {None, TraceFormatError, TraceTruncatedError}

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.one_of(
            st.text(max_size=30),
            st.text(alphabet='[]{},:"0123456789.-+eEINafntrulsy \\', max_size=30),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                max_leaves=8,
            ).flatmap(
                lambda document: st.tuples(
                    st.just(json.dumps(document)), st.integers(0, 40), st.text(max_size=2)
                ).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :])
            ),
        )
    )
    def test_decode_line_is_json_loads_on_a_stripped_line(self, text):
        stripped = text.strip()
        try:
            expected = json.loads(stripped)
        except json.JSONDecodeError:
            with pytest.raises(json.JSONDecodeError):
                decode_line(stripped)
        else:
            assert repr(decode_line(stripped)) == repr(expected)


# ----------------------------------------------------------------------
# Durability: a killed writer leaves everything it recorded
# ----------------------------------------------------------------------
_KILLED_WRITER = """
import os, signal, sys
from repro.traceio import TraceWriter

writer = TraceWriter.scripted(sys.argv[1], 2)
for message_id in range(int(sys.argv[2])):
    writer.on_send(0, 1, message_id, float(message_id))
    writer.on_receive(message_id, message_id + 0.5)
    writer.on_checkpoint(1, message_id, (message_id + 1, message_id), forced=True,
                         time=message_id + 0.75)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
def test_sigkilled_writer_leaves_every_record(tmp_path):
    path = str(tmp_path / "killed.trace.jsonl")
    messages = 200
    finished = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITER, path, str(messages)],
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert finished.returncode == -signal.SIGKILL
    with pytest.raises(TraceTruncatedError):
        TraceReader(path).replay()
    replayed = TraceReader(path).replay(allow_partial=True)
    assert replayed.truncated and replayed.footer is None
    assert replayed.recorder.log.total_events() == 3 * messages


# ----------------------------------------------------------------------
# Boundary bugs
# ----------------------------------------------------------------------
def _insert_line(path, index, text):
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines.insert(index, text + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


class TestGarbledTagFailsTyped:
    """A record whose tag is a list or an object is a format error, not a
    bare ``TypeError: unhashable type`` out of the arity lookup."""

    @pytest.mark.parametrize("record", ['[["s"],0,1,2,3.0]', '[{"a":1},2,3]'])
    def test_trace_reader(self, tmp_path, record):
        path = str(tmp_path / "garbled.trace.jsonl")
        writer = TraceWriter.scripted(path, 2)
        writer.on_send(0, 1, 1, 0.5)
        writer.seal()
        _insert_line(path, 2, record)
        for read in (
            lambda: TraceReader(path).replay(),
            lambda: TraceReader(path).replay(allow_partial=True),
            lambda: verify_trace(path),
        ):
            with pytest.raises(TraceFormatError, match=rf"{path}:3: unknown record tag"):
                read()

    @pytest.mark.parametrize("record", ['[["s"],0,1,2,3.0]', '[{"a":1},2,3]'])
    def test_read_shard(self, tmp_path, record):
        path = str(tmp_path / "garbled.shard.jsonl")
        writer = ShardWriter(path, pid=0, num_processes=2)
        writer.record_internal(0, 0.5)
        writer.close()
        _insert_line(path, 2, f"[0,2,{record}]")
        with pytest.raises(TraceFormatError, match=rf"{path}:3: unknown record tag"):
            read_shard(path)


class _UndescribableNetwork(NetworkConfig):
    def describe(self):
        raise RuntimeError("no description")


def test_header_failure_leaves_no_file_and_no_open_handle(tmp_path):
    path = str(tmp_path / "sub" / "never.trace.jsonl")
    config = dataclasses.replace(
        random_run_config(seed=0, keep_final_ccp=False), network=_UndescribableNetwork()
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="no description"):
            TraceWriter(path, config)
        with pytest.raises(TypeError):  # a header that builds but cannot be encoded
            TraceWriter(path, header={"format": "repro-trace", "meta": {"x": object()}})
        gc.collect()
    assert not os.path.exists(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
