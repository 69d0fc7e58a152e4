"""Garbled live shards: the merge yields a clean artifact, or a ``TraceError``
naming ``path:line`` — never anything else.

The shards of a two-process exchange — closed by their workers (footered),
SIGKILLed (no footer) or one of each — get one mutation in one shard: a line
dropped, duplicated, swapped with another or cut short, one value retyped, or
a few bytes flipped.  The pair is then merged the way the coordinator merges
(:func:`read_shard`, :func:`ordered_entries`, :func:`replay_entries` into a
:class:`TraceWriter`).  Whatever the mutation, either the merged artifact
passes ``verify_trace`` or the refusal is one of the trace errors, and its
message leads back to a line of one of the shards.
"""

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.merge import ordered_entries, replay_entries
from repro.live.shard import ShardWriter, read_shard
from repro.traceio import TraceWriter, verify_trace
from repro.traceio.format import TraceError, TraceFormatError

#: Values of every JSON type (and a few a reader must not coerce).
RETYPED = [None, True, False, -1, 0, 2.5, "x", "no", [], [1], {}, {"x": 1}]

MUTATIONS = ["drop", "duplicate", "swap", "cut", "retype", "flip"]

#: Which of the two workers closed its shard (wrote the footer).
CLOSED = {"complete": (True, True), "killed": (False, False), "mixed": (True, False)}


def _exchange(directory):
    """The shard paths of a short two-process exchange, closed by both workers.

    Process 0's shard holds five records (seven lines once footered): a
    checkpoint, a send, an internal event, a second send and a second
    checkpoint.  Process 1's holds a checkpoint, a receive, a forced
    checkpoint and the elimination of its first checkpoint.
    """
    paths = [os.path.join(directory, f"w{pid}.shard.jsonl") for pid in (0, 1)]
    w0 = ShardWriter(paths[0], pid=0, num_processes=2)
    w1 = ShardWriter(paths[1], pid=1, num_processes=2)
    w0.record_checkpoint(0, 0, (1, 0), forced=False, time=0.0)
    w1.record_checkpoint(1, 0, (0, 1), forced=False, time=0.0)
    w0.record_send(0, 1, 1, 1.0)
    w0.record_internal(0, 1.2)
    w1.merge_clock(w0.lamport)
    w1.record_receive(1, 1.6)
    w0.record_send(0, 1, 2, 2.0)
    w1.record_checkpoint(1, 1, (1, 2), forced=True, time=2.5)
    w1.record_elimination(1, 0)
    w0.record_checkpoint(0, 1, (2, 0), forced=False, time=3.0)
    w0.close()
    w1.close()
    return paths


def _shard_lines(closed):
    """Each shard's lines; a SIGKILLed worker's shard lacks its footer."""
    with tempfile.TemporaryDirectory() as directory:
        pair = []
        for path, footered in zip(_exchange(directory), closed):
            with open(path, "rb") as handle:
                lines = handle.read().splitlines(keepends=True)
            pair.append(lines if footered else lines[:-1])
        return pair


SHARD_LINES = {name: _shard_lines(closed) for name, closed in CLOSED.items()}


def _merge(paths, out):
    """The coordinator's merge of ``paths`` into the artifact ``out``."""
    shards = [read_shard(path) for path in paths]
    writer = TraceWriter.scripted(out, 2, workload="garbled-shards")
    try:
        replay_entries(ordered_entries(shards), 2, sink=writer)
    except BaseException as exc:
        writer.abort(f"{type(exc).__name__}: {exc}")
        raise
    writer.seal()


def _paths(node, prefix=()):
    """Every path to a value inside ``node`` (the root excluded)."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def garbled(draw):
    """A shard pair after one mutation of one of its shards."""
    pair = [list(lines) for lines in SHARD_LINES[draw(st.sampled_from(sorted(CLOSED)))]]
    lines = pair[draw(st.integers(0, 1))]
    mutation = draw(st.sampled_from(MUTATIONS))
    index = draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[index]
    elif mutation == "duplicate":
        lines.insert(index, lines[index])
    elif mutation == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[index], lines[other] = lines[other], lines[index]
    elif mutation == "cut":
        line = lines[index].rstrip(b"\n")
        cut = line[: draw(st.integers(1, len(line) - 1))]
        lines[index] = cut + (b"\n" if index < len(lines) - 1 else b"")
    elif mutation == "retype":
        document = json.loads(lines[index])
        path = draw(st.sampled_from(list(_paths(document))))
        _at(document, path[:-1])[path[-1]] = draw(st.sampled_from(RETYPED))
        lines[index] = json.dumps(document, separators=(",", ":")).encode() + b"\n"
    else:
        content = bytearray(b"".join(lines))
        for position in draw(st.lists(st.integers(0, len(content) - 1), min_size=1, max_size=3)):
            content[position] ^= draw(st.integers(1, 255))
        lines[:] = [bytes(content)]
    return mutation, [b"".join(lines) for lines in pair]


def _write(directory, contents):
    paths = [os.path.join(directory, f"w{pid}.shard.jsonl") for pid in (0, 1)]
    for path, content in zip(paths, contents):
        with open(path, "wb") as handle:
            handle.write(content)
    return paths


@settings(max_examples=300, deadline=None)
@given(case=garbled())
def test_a_garbled_shard_merges_clean_or_is_refused_naming_a_line(case, tmp_path_factory):
    mutation, contents = case
    directory = str(tmp_path_factory.mktemp("garbled"))
    paths = _write(directory, contents)
    out = os.path.join(directory, "merged.trace.jsonl")
    located = re.compile("^(" + "|".join(map(re.escape, paths)) + r"):\d+: ")
    try:
        _merge(paths, out)
    except TraceError as refusal:
        assert located.match(str(refusal)), (mutation, str(refusal))
    else:
        assert verify_trace(out) == [], mutation


def test_every_fixture_merges_clean():
    """Each unmutated shard pair merges verify-clean, and each line can be cut."""
    with tempfile.TemporaryDirectory() as directory:
        for pair in SHARD_LINES.values():
            paths = _write(directory, [b"".join(lines) for lines in pair])
            out = os.path.join(directory, "merged.trace.jsonl")
            _merge(paths, out)
            assert verify_trace(out) == []
            assert all(len(line.rstrip(b"\n")) >= 2 for lines in pair for line in lines)
    assert [len(lines) for lines in SHARD_LINES["complete"]] == [7, 6]


# ----------------------------------------------------------------------
# Pinned cases: damage that once merged silently (a short read, an
# unchecked footer count, a coerced header) or failed untyped.
# ----------------------------------------------------------------------
def _pinned(tmp_path, name, edit):
    """The ``name`` pair with process 0's shard lines passed through ``edit``."""
    pair = [list(lines) for lines in SHARD_LINES[name]]
    pair[0] = edit(pair[0])
    return _write(str(tmp_path), [b"".join(lines) for lines in pair])


def _refused(paths, tmp_path, line, message):
    pattern = f"^{re.escape(paths[0])}:{line}: {message}"
    with pytest.raises(TraceFormatError, match=pattern):
        _merge(paths, str(tmp_path / "merged.trace.jsonl"))


def test_a_flipped_interior_line_is_refused_not_read_as_a_torn_tail(tmp_path):
    """Flipping the end of line 4 of the seven-line shard used to stop the
    read there: 2 of its 5 records, merged without a word."""

    def flip(lines):
        lines[3] = lines[3][:-2] + bytes([lines[3][-2] ^ 0x01]) + b"\n"
        return lines

    _refused(_pinned(tmp_path, "complete", flip), tmp_path, 4, "unparseable line")


def test_a_dropped_interior_line_breaks_the_footer_count(tmp_path):
    def drop(lines):
        del lines[2]
        return lines

    _refused(
        _pinned(tmp_path, "complete", drop), tmp_path, 6,
        "shard footer says 5 records, the shard holds 4",
    )


@pytest.mark.parametrize("record", ['["j",0,4.0]', '["S",4.0,[1,1]]', '["l",0,4.0]'])
def test_a_trace_only_record_is_refused_where_it_is_applied(tmp_path, record):
    """A trace-only tag passes the shard's envelope check, and the merge
    refuses it by type and line (it was a bare ValueError naming nothing)."""

    def append(lines):
        return lines + [f"[0,99,{record}]\n".encode()]

    _refused(_pinned(tmp_path, "killed", append), tmp_path, 7, "unknown record tag")


def test_a_header_pid_of_true_is_not_process_one(tmp_path):
    def retype(lines):
        lines[0] = lines[0].replace(b'"pid":0', b'"pid":true')
        return lines

    _refused(_pinned(tmp_path, "complete", retype), tmp_path, 1, "shard header pid True")


def test_a_record_after_the_footer_is_refused(tmp_path):
    def append(lines):
        return lines + [lines[1]]

    _refused(
        _pinned(tmp_path, "complete", append), tmp_path, 8,
        "record after the shard footer",
    )
