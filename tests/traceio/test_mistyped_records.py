"""A record whose fields have the wrong types is refused on its own line.

Each case takes the golden ``uniform-baseline`` trace (3 processes), retypes
one field of the first record of some tag, and asks the three readers —
strict replay, partial replay and ``verify_trace`` — for a
:class:`TraceFormatError` naming ``path:line`` of that record.  The rule
(``repro.traceio.format.FIELD_RULES``): pids and ids exactly ``int``, a
time an ``int`` or ``float``, ``forced`` 0 or 1, a vector ``n``
non-negative ``int``\\ s.
"""

import json
import os
import re

import pytest

from repro.traceio.format import TraceFormatError
from repro.traceio.reader import TraceReader, verify_trace

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden_traces", "uniform-baseline.trace.jsonl"
)
N = 3  # the golden run's processes

#: (tag of the record to retype, field index, the value it gets).
MUTATIONS = [
    ("c", 5, "abc"),
    ("c", 5, [1, 2]),
    ("c", 5, [-5, 0, 0, 0]),
    ("c", 5, [-5] + [0] * (N - 1)),
    ("c", 5, [1.5] + [0] * (N - 1)),
    ("c", 5, [True] + [0] * (N - 1)),
    ("c", 3, "yes"),
    ("c", 3, 7),
    ("c", 4, None),
    ("s", 1, True),
    ("s", 3, 5.0),
    ("r", 2, "later"),
]


def _mutated(tmp_path, tag, field, value):
    """A copy of the golden trace with one field retyped; (path, line number)."""
    with open(GOLDEN, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    number = next(
        index + 1 for index, text in enumerate(lines) if text.startswith(f'["{tag}",')
    )
    record = json.loads(lines[number - 1])
    record[field] = value
    lines[number - 1] = json.dumps(record, separators=(",", ":"))
    path = str(tmp_path / "mistyped.trace.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path, number


def test_the_golden_trace_replays_and_verifies():
    assert TraceReader(GOLDEN).replay().recorder.num_processes == N
    assert verify_trace(GOLDEN) == []


@pytest.mark.parametrize(
    "tag, field, value", MUTATIONS, ids=[f"{t}[{f}]={v!r}" for t, f, v in MUTATIONS]
)
def test_a_mistyped_record_is_refused_naming_its_line(tmp_path, tag, field, value):
    path, number = _mutated(tmp_path, tag, field, value)
    for read in (
        lambda: TraceReader(path).replay(),
        lambda: TraceReader(path).replay(allow_partial=True),
        lambda: verify_trace(path),
    ):
        with pytest.raises(TraceFormatError, match=rf"^{re.escape(path)}:{number}: '{tag}' record"):
            read()
