"""ASCII space-time diagrams.

The paper communicates its ideas through space-time diagrams (Figures 1-5).
These helpers render a recorded :class:`repro.ccp.CCP` in the same spirit —
one row per process, one column per global event position — so that the
figure-reproduction benchmarks and the examples can show *what happened* next
to the numbers they print.

Symbols: ``[k]`` a stable checkpoint with index ``k``; ``s>`` the send and
``>r`` the receive of a message (annotated with the message id); ``.``
nothing.  The rendering is intentionally simple; it is a debugging and
reporting aid, not a drawing library.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.causality.events import (
    CHECKPOINT,
    E_CHECKPOINT_INDEX,
    E_KIND,
    E_MESSAGE_ID,
    E_PID,
    E_SEQ,
    E_TIME,
    RECEIVE,
    SEND,
)
from repro.ccp.pattern import CCP


def render_ccp(ccp: CCP, *, max_width: int = 120) -> str:
    """Render the event structure of a CCP as an ASCII diagram."""
    log = ccp.log
    events = sorted(log.events(), key=itemgetter(E_TIME, E_PID, E_SEQ))
    columns: List[Tuple[int, str]] = []
    for event in events:
        kind = event[E_KIND]
        if kind == CHECKPOINT:
            token = f"[{event[E_CHECKPOINT_INDEX]}]"
        elif kind == SEND:
            token = f"s{event[E_MESSAGE_ID]}>"
        elif kind == RECEIVE:
            token = f">r{event[E_MESSAGE_ID]}"
        else:
            token = "·"
        columns.append((event[E_PID], token))
    width = max((len(token) for _, token in columns), default=1)
    lines: List[str] = []
    for pid in log.processes:
        cells = []
        for owner, token in columns:
            cells.append(token.center(width) if owner == pid else "-" * width)
        row = f"p{pid}: " + "-".join(cells)
        if len(row) > max_width:
            row = row[: max_width - 3] + "..."
        lines.append(row)
    return "\n".join(lines)


def render_gc_trace(
    steps: Sequence[Tuple[str, Sequence[int], Sequence[Optional[int]]]],
) -> str:
    """Render a sequence of ``(event description, DV, UC)`` steps.

    This mirrors the annotations of Figure 4: for each event of interest the
    dependency vector is shown above the ``UC`` table (``*`` marks ``Null``).
    """
    lines: List[str] = []
    for description, dv, uc in steps:
        uc_text = ", ".join("*" if entry is None else str(entry) for entry in uc)
        lines.append(f"{description:<28} DV=({', '.join(str(v) for v in dv)})  UC=({uc_text})")
    return "\n".join(lines)
