"""Wire codecs of the live backend: frames, datagrams, payload packing."""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import struct

import pytest

from repro.gc.coordinated import GcReport, _Decision, _Reply, _Request
from repro.live.frames import (
    MAX_DATAGRAM,
    MAX_FRAME,
    ControlPayloadError,
    DatagramTooLargeError,
    decode_datagram,
    encode_datagram,
    encode_frame,
    pack_payload,
    read_frame,
    unpack_payload,
)
from repro.live.shard import ShardWriter
from repro.live.transport import LiveTransport
from repro.simulation.network import NetworkConfig


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    if data:
        reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read(data: bytes):
    async def scenario():
        return await read_frame(_reader_with(data))

    return asyncio.run(scenario())


class TestFrames:
    def test_round_trip(self):
        doc = {"type": "init", "peers": {"0": 1234}, "actions": [[1.5, "send", 2]]}
        assert _read(encode_frame(doc)) == doc

    def test_multiple_frames_in_sequence(self):
        docs = [{"type": "hello", "pid": 0}, {"type": "go", "at_virtual_time": 0.0}]

        async def scenario():
            reader = _reader_with(b"".join(encode_frame(doc) for doc in docs))
            return [await read_frame(reader) for _ in docs]

        assert asyncio.run(scenario()) == docs

    def test_eof_returns_none(self):
        assert _read(b"") is None

    def test_torn_frame_returns_none(self):
        """A SIGKILL mid-write leaves a partial frame: a clean close, not an error."""
        whole = encode_frame({"type": "final", "pid": 2})
        assert _read(whole[: len(whole) - 3]) is None
        assert _read(whole[:2]) is None

    def test_oversized_frame_rejected(self):
        data = struct.pack(">I", MAX_FRAME + 1) + b"x"
        with pytest.raises(ValueError):
            _read(data)


class TestDatagrams:
    def test_round_trip(self):
        doc = {"t": "app", "m": 7, "s": 0, "r": 1, "pb": [1, 2, 3], "e": 0, "l": 9}
        assert decode_datagram(encode_datagram(doc)) == doc

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_datagram(b"\xff\x00 not json")

    @pytest.mark.parametrize("processes, size", [(64, 580), (128, 1094)])
    def test_the_largest_app_datagram_fits(self, processes, size):
        """An app datagram carries the O(n) piggybacked vector: with every
        counter at 10^6 it is far below the UDP limit at 64 and 128 processes."""
        big = 10**6
        doc = {
            "t": "app", "m": big, "s": processes - 1, "r": processes - 2,
            "pb": [big] * processes, "e": big, "l": big,
        }
        assert len(encode_datagram(doc)) == size < MAX_DATAGRAM

    def test_an_oversized_reply_is_refused_before_it_is_sent(self, tmp_path):
        """A coordinated round's reply carries every retained checkpoint's
        vector: at 128 processes x 300 retained it exceeds one datagram, and
        the transport raises instead of handing the kernel a datagram that
        ``sendto`` would drop with EMSGSIZE."""
        processes, retained = 128, 300
        vector = tuple(range(processes))
        report = GcReport(
            pid=0,
            last_stable=retained - 1,
            checkpoints=tuple((index, vector) for index in range(retained)),
            volatile_dv=vector,
        )
        shard = ShardWriter(str(tmp_path / "0.shard.jsonl"), pid=0, num_processes=processes)
        transport = LiveTransport(
            seed=1, network=NetworkConfig(), time_scale=1.0, shard=shard, clock=lambda: 0.0
        )
        sent = []

        class Endpoint:
            def sendto(self, data, address):
                sent.append(data)

        transport.attach_endpoint(Endpoint())
        transport.set_peers({1: ("127.0.0.1", 1)})
        with pytest.raises(DatagramTooLargeError, match=r"'ctrl' datagram of \d+ bytes"):
            transport.send_control_message(0, 1, _Reply(1, 7, report))
        shard.close()
        assert sent == [] and transport.stats.control_sent == 0


REPORT = GcReport(pid=2, last_stable=4, checkpoints=((1, (0, 1, 0)), (4, (3, 4, 1))),
                  volatile_dv=(3, 5, 1))
PAYLOADS = [_Request(1, 7), _Reply(1, 7, REPORT), _Decision(1, 7, (0, 2))]


class _Detonator:
    """Unpickling this calls ``detonate``: what a crafted payload can do to pickle."""

    def __reduce__(self):
        return (_detonate, ())


def _detonate():  # pragma: no cover - must never run
    raise AssertionError("a control payload was unpickled")


def _through_json(payload):
    """What the receiver sees: the packed payload after a datagram's JSON round trip."""
    return json.loads(json.dumps(pack_payload(payload)))


class TestPayloadPacking:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_round_trip(self, payload):
        assert unpack_payload(_through_json(payload)) == payload

    def test_tuples_survive(self):
        """JSON turns tuples into lists; the decoder rebuilds every one."""
        reply = unpack_payload(_through_json(PAYLOADS[1]))
        report = reply.report
        assert type(report.checkpoints) is tuple and type(report.volatile_dv) is tuple
        assert all(type(c) is tuple and type(c[1]) is tuple for c in report.checkpoints)
        assert type(unpack_payload(_through_json(PAYLOADS[2])).discard) is tuple

    def test_only_round_messages_are_packed(self):
        for payload in (None, {"dv": (3, 1, 4)}, "marker", REPORT):
            with pytest.raises(ControlPayloadError):
                pack_payload(payload)

    @pytest.mark.parametrize(
        "encoded",
        [
            None,
            [],
            "req",
            ["pickle", 1, 7],
            [["req"], 1, 7],
            ["req", 1],
            ["req", 1, 7, 0],
            ["req", "1", 7],
            ["req", True, 7],
            ["req", 1.0, 7],
            ["dec", 1, 7, [0, "2"]],
            ["dec", 1, 7, {"0": 2}],
            ["rep", 1, 7, 2, 4, [[1]], [3, 5, 1]],
            ["rep", 1, 7, 2, 4, [[1, [0, None, 0]]], [3, 5, 1]],
            ["rep", 1, 7, 2, 4, {"1": [0]}, [3, 5, 1]],
            ["rep", 1, 7, 2, 4, [], (3, 5, 1)],
        ],
    )
    def test_malformed_payload_refused(self, encoded):
        with pytest.raises(ControlPayloadError):
            unpack_payload(encoded)

    def test_crafted_pickle_payload_refused(self):
        """The wire format before the tagged encoding: base64 of a pickle."""
        crafted = base64.b64encode(pickle.dumps(_Detonator())).decode("ascii")
        with pytest.raises(ControlPayloadError):
            unpack_payload(crafted)
        with pytest.raises(ControlPayloadError):
            unpack_payload(["rep", 1, 7, 2, 4, crafted, [3, 5, 1]])

    def test_a_transport_delivers_round_messages_and_drops_the_rest(self, tmp_path):
        shard = ShardWriter(str(tmp_path / "0.shard.jsonl"), pid=0, num_processes=3)
        transport = LiveTransport(
            seed=1, network=NetworkConfig(), time_scale=1.0, shard=shard, clock=lambda: 0.0
        )
        delivered = []
        transport.on_control_delivery(lambda sender, payload: delivered.append(payload))
        crafted = base64.b64encode(pickle.dumps(_Detonator())).decode("ascii")
        for packed in (crafted, ["dec", 1, 7, crafted], pack_payload(PAYLOADS[2])):
            transport.datagram_received(
                encode_datagram({"t": "ctrl", "s": 1, "p": packed, "e": 0, "l": 0})
            )
        shard.close()
        assert delivered == [PAYLOADS[2]]
        assert transport.stats.control_delivered == 1
