"""Garbled traces: ``TraceReader`` returns a replay or raises a ``TraceError``
naming ``path:line`` — never anything else.

Each golden trace is mutated once — a line dropped, duplicated, swapped with
another or cut short, one value retyped, or a few bytes flipped — and read
the three ways a trace is read: strict replay, partial replay and
``verify_trace``.  Whatever the mutation, a refusal is one of the trace
errors, and its message leads back to a line of the file.
"""

import glob
import json
import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traceio.format import TraceError
from repro.traceio.reader import TraceReader, verify_trace

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden_traces")
GOLDENS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.trace.jsonl")))

#: Values of every JSON type (and a few a reader must not coerce).
RETYPED = [None, True, False, -1, 0, 2.5, "x", "no", [], [1], {}, {"x": 1}]

MUTATIONS = ["drop", "duplicate", "swap", "cut", "retype", "flip"]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


GOLDEN_LINES = {path: _read(path) for path in GOLDENS}


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
    """The bytes of a golden trace after one mutation."""
    lines = list(GOLDEN_LINES[draw(st.sampled_from(GOLDENS))])
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
        if len(path) == 1:
            document[path[0]] = draw(st.sampled_from(RETYPED))
        else:
            _at(document, path[:-1])[path[-1]] = draw(st.sampled_from(RETYPED))
        lines[index] = json.dumps(document, separators=(",", ":")).encode() + b"\n"
    else:
        content = bytearray(b"".join(lines))
        for position in draw(st.lists(st.integers(0, len(content) - 1), min_size=1, max_size=3)):
            content[position] ^= draw(st.integers(1, 255))
        return mutation, bytes(content)
    return mutation, b"".join(lines)


@settings(max_examples=300, deadline=None)
@given(case=garbled())
def test_a_garbled_trace_replays_or_is_refused_naming_a_line(case, tmp_path_factory):
    mutation, content = case
    path = str(tmp_path_factory.mktemp("garbled") / "garbled.trace.jsonl")
    with open(path, "wb") as handle:
        handle.write(content)
    located = re.compile(rf"^{re.escape(path)}:\d+: ")
    for read in (
        lambda: TraceReader(path).replay(),
        lambda: TraceReader(path).replay(allow_partial=True),
        lambda: verify_trace(path),
    ):
        try:
            read()
        except TraceError as refusal:
            assert located.match(str(refusal)), (mutation, str(refusal))


def test_every_golden_trace_is_mutable():
    """Each golden trace replays clean, and each of its lines can be cut short."""
    assert GOLDENS
    for path, lines in GOLDEN_LINES.items():
        assert verify_trace(path) == []
        assert all(len(line.rstrip(b"\n")) >= 2 for line in lines)
