"""Wire encodings of the live backend.

Two channels, two encodings:

* **Control plane** (coordinator ⟷ worker, TCP): length-prefixed JSON
  frames — a 4-byte big-endian length followed by a compact JSON object.
  The prefix gives unambiguous message boundaries on a byte stream; JSON
  keeps the protocol greppable in a packet dump and needs no third-party
  codec (the container bakes in the stdlib only).
* **Data plane** (worker ⟷ worker, UDP): one JSON object per datagram —
  UDP preserves message boundaries, so no prefix is needed.  A document
  larger than one datagram is refused before it is sent
  (:class:`DatagramTooLargeError`), not lost to ``EMSGSIZE`` uncounted.

Collector control payloads are the three round messages of the coordinated
baselines (:mod:`repro.gc.coordinated`): a request, a reply carrying a
:class:`~repro.gc.coordinated.GcReport`, and a decision.  Each crosses the
wire as a tagged JSON list (:func:`pack_payload`) and is rebuilt field by
field (:func:`unpack_payload`), so tuples come back as tuples and nothing
arriving on the data-plane port is ever executed: an unknown tag or a
malformed field is a :class:`ControlPayloadError`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

import asyncio

from repro.gc.coordinated import GcReport, _Decision, _Reply, _Request

_LENGTH = struct.Struct(">I")

#: Refuse absurd frame lengths (a desynchronised stream, not a real frame).
MAX_FRAME = 16 * 1024 * 1024


def encode_frame(document: Dict[str, Any]) -> bytes:
    """Encode one control-plane frame (length prefix + compact JSON)."""
    payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one control-plane frame; ``None`` on a clean or torn EOF.

    A SIGKILLed peer tears the stream mid-frame; the coordinator treats
    that exactly like a clean close (the process is gone either way).
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise ValueError(f"frame length {length} exceeds the {MAX_FRAME} cap")
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    document = json.loads(payload.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("control frames must be JSON objects")
    return document


def send_frame(writer: asyncio.StreamWriter, document: Dict[str, Any]) -> None:
    """Queue one control-plane frame on ``writer`` (flushed by the loop)."""
    writer.write(encode_frame(document))


#: The largest UDP payload over IPv4: 65 535 minus the IP and UDP headers.
MAX_DATAGRAM = 65_507


class DatagramTooLargeError(ValueError):
    """A data-plane document that does not fit in one UDP datagram."""


def encode_datagram(document: Dict[str, Any]) -> bytes:
    """Encode one data-plane datagram (compact JSON, one object per packet).

    Raises :class:`DatagramTooLargeError` above :data:`MAX_DATAGRAM` bytes.
    """
    data = json.dumps(document, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_DATAGRAM:
        raise DatagramTooLargeError(
            f"a {document.get('t')!r} datagram of {len(data)} bytes exceeds the "
            f"{MAX_DATAGRAM}-byte UDP limit"
        )
    return data


def decode_datagram(data: bytes) -> Dict[str, Any]:
    """Decode one data-plane datagram."""
    document = json.loads(data.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("datagrams must be JSON objects")
    return document


class ControlPayloadError(ValueError):
    """A control payload that is not one of the collectors' round messages."""


#: Tag → list length of each encoded control payload.
_ARITY = {"req": 3, "rep": 7, "dec": 4}


def pack_payload(payload: Any) -> List[Any]:
    """Encode a collector control payload as a tagged JSON list."""
    if isinstance(payload, _Request):
        return ["req", payload.epoch, payload.round_id]
    if isinstance(payload, _Reply):
        report = payload.report
        return [
            "rep", payload.epoch, payload.round_id, report.pid, report.last_stable,
            [[index, list(dv)] for index, dv in report.checkpoints],
            list(report.volatile_dv),
        ]
    if isinstance(payload, _Decision):
        return ["dec", payload.epoch, payload.round_id, list(payload.discard)]
    raise ControlPayloadError(f"no wire encoding for control payload {payload!r}")


def _int(value: Any) -> int:
    if type(value) is not int:
        raise ControlPayloadError(f"expected an integer field, got {value!r}")
    return value


def _ints(value: Any) -> Tuple[int, ...]:
    if type(value) is not list:
        raise ControlPayloadError(f"expected a list of integers, got {value!r}")
    return tuple(_int(item) for item in value)


def unpack_payload(encoded: Any) -> Any:
    """Rebuild a :func:`pack_payload` value; anything else is refused."""
    if (
        type(encoded) is not list
        or not encoded
        or type(encoded[0]) is not str
        or _ARITY.get(encoded[0]) != len(encoded)
    ):
        raise ControlPayloadError(f"{encoded!r} is not a tagged control payload")
    tag, epoch, round_id = encoded[0], _int(encoded[1]), _int(encoded[2])
    if tag == "req":
        return _Request(epoch, round_id)
    if tag == "dec":
        return _Decision(epoch, round_id, _ints(encoded[3]))
    pid, last_stable, checkpoints, volatile_dv = encoded[3:]
    if type(checkpoints) is not list:
        raise ControlPayloadError(f"expected a list of checkpoints, got {checkpoints!r}")
    stored = []
    for item in checkpoints:
        if type(item) is not list or len(item) != 2:
            raise ControlPayloadError(f"expected [index, dv], got {item!r}")
        stored.append((_int(item[0]), _ints(item[1])))
    report = GcReport(_int(pid), _int(last_stable), tuple(stored), _ints(volatile_dv))
    return _Reply(epoch, round_id, report)
