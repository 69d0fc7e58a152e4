"""The first rung of sim≡live: both transports draw fates from one owner.

No sockets, no processes, no event loop: the live transports run on a fake
clock and a fake wire that loops datagrams back into the receiver's
transport, and their virtual-time heaps are stepped with ``run_due``.
"""

import dataclasses
import random

import pytest

from repro.live.frames import decode_datagram
from repro.live.shard import ShardWriter
from repro.live.transport import LiveTransport
from repro.live.worker import LiveWorker
from repro.simulation.channels import (
    DuplicatingChannel,
    GilbertElliottChannel,
    PartitionSchedule,
    UniformChannel,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import LinkFates, Network, NetworkConfig
from repro.simulation.node import build_node

PROCESSES = 3
SEED = 11

CONFIGS = {
    "uniform-lossy": NetworkConfig(drop_probability=0.3),
    "gilbert-elliott": NetworkConfig(
        channel=GilbertElliottChannel(loss_bad=0.6, p_good_to_bad=0.2)
    ),
    "duplicating": NetworkConfig(
        channel=DuplicatingChannel(
            channel=UniformChannel(drop_probability=0.1), duplicate_probability=0.4
        )
    ),
    "partitioned-fifo": NetworkConfig(
        jitter=3.0,
        partitions=PartitionSchedule.of([(10.0, 25.0, ((0,),))]),
        fifo=True,
    ),
}


def _send_sequence():
    """``(time, sender, receiver)``: four sends per time unit, so copies overlap."""
    rng = random.Random(5)
    sends = []
    for step in range(200):
        sender = rng.randrange(PROCESSES)
        receiver = rng.choice([pid for pid in range(PROCESSES) if pid != sender])
        sends.append((step * 0.25, sender, receiver))
    return sends


def _comparable(stats_objects):
    """The counters summed over ``stats_objects``, minus the simulator-only one."""
    total = {}
    for stats in stats_objects:
        for name, value in dataclasses.asdict(stats).items():
            total[name] = total.get(name, 0) + value
    del total["partition_events"]  # engine events of the simulator, not a fate
    return total


def _through_network(config, sends):
    """Per send: the ``(delivery instant, kind)`` of its copies as they land; and the stats."""
    engine = SimulationEngine(seed=SEED)
    network = Network(engine, config)
    arrivals = {}
    network.on_app_delivery(
        lambda m: arrivals.setdefault(m.message_id, []).append((engine.now, "first"))
    )
    network.on_duplicate_delivery(
        lambda m: arrivals.setdefault(m.message_id, []).append((engine.now, "duplicate"))
    )
    sent = []
    for time, sender, receiver in sends:
        engine.schedule_at(
            time,
            lambda s=sender, r=receiver: sent.append(
                network.send_app_message(s, r, (0,) * PROCESSES)
            ),
        )
    engine.run()
    return [arrivals.get(m.message_id, []) for m in sent], _comparable([network.stats])


class _Wire:
    """Stands in for the UDP endpoint: a datagram sent is a datagram received."""

    def __init__(self, transports):
        self._transports = transports

    def sendto(self, data, address):
        assert decode_datagram(data)["t"] == "app"
        self._transports[address[1]].datagram_received(data)


def _through_live_transports(config, sends, tmp_path, incarnation=0):
    now = [0.0]
    transports, shards, arrivals = [], [], {}
    for pid in range(PROCESSES):
        shard = ShardWriter(
            str(tmp_path / f"{pid}-{incarnation}.shard.jsonl"),
            pid=pid, num_processes=PROCESSES, incarnation=incarnation,
        )
        transport = LiveTransport(
            seed=SEED, network=config, time_scale=1.0, shard=shard,
            incarnation=incarnation, clock=lambda: now[0],
        )
        transport.on_app_delivery(
            lambda m: arrivals.setdefault(m.message_id, []).append((now[0], "first"))
        )
        transport.on_duplicate_delivery(
            lambda m: arrivals.setdefault(m.message_id, []).append((now[0], "duplicate"))
        )
        transports.append(transport)
        shards.append(shard)
    wire = _Wire(transports)
    for transport in transports:
        transport.attach_endpoint(wire)
        transport.set_peers({peer: ("fake", peer) for peer in range(PROCESSES)})
        transport.start_clock(0.0)
    sent, queue = [], list(sends)
    while True:
        due = [t for t in (transport.run_due() for transport in transports) if t is not None]
        if queue:
            due.append(queue[0][0])
        if not due:
            break
        now[0] = min(due)
        while queue and queue[0][0] == now[0]:
            _, sender, receiver = queue.pop(0)
            message = transports[sender].send_app_message(sender, receiver, (0,) * PROCESSES)
            # What the node does next; the shard's after_send hook transmits.
            shards[sender].record_send(sender, receiver, message.message_id, now[0])
            sent.append(message)
    for shard in shards:
        shard.close()
    return (
        [arrivals.get(m.message_id, []) for m in sent],
        _comparable([transport.stats for transport in transports]),
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_network_and_live_transport_decide_the_same_fates(name, tmp_path):
    config, sends = CONFIGS[name], _send_sequence()
    sim_arrivals, sim_stats = _through_network(config, sends)
    live_arrivals, live_stats = _through_live_transports(config, sends, tmp_path)
    assert live_arrivals == sim_arrivals  # same instants, same first/duplicate split
    assert live_stats == sim_stats
    # The configuration exercised what it is here for.
    exercised = {
        "uniform-lossy": "app_dropped",
        "gilbert-elliott": "app_dropped",
        "duplicating": "app_duplicates_delivered",
        "partitioned-fifo": "app_blocked_by_partition",
    }[name]
    assert sim_stats[exercised] > 0 and sim_stats["app_delivered"] > 0
    if config.fifo:
        for sender, receiver in {(s, r) for _, s, r in sends}:
            link = [
                arrival[0][0]
                for arrival, (_, s, r) in zip(sim_arrivals, sends)
                if (s, r) == (sender, receiver) and arrival
            ]
            assert link == sorted(link)


def _draws(fates):
    return [fates.app_delivery_times(0, 1, float(step)) for step in range(60)]


def test_a_respawned_incarnation_does_not_replay_its_links_draws():
    config = CONFIGS["uniform-lossy"]
    # Incarnation 0 is the unsalted stream, the one the simulator draws from
    # (the differential test above holds Network and LiveTransport to it).
    first = _draws(LinkFates(SEED, config))
    assert _draws(LinkFates(SEED, config, incarnation=0)) == first
    respawned = _draws(LinkFates(SEED, config, incarnation=1))
    assert respawned != first
    assert _draws(LinkFates(SEED, config, incarnation=2)) not in (first, respawned)


def test_a_respawned_live_transport_draws_fresh_fates(tmp_path):
    config, sends = CONFIGS["uniform-lossy"], _send_sequence()
    first, _ = _through_live_transports(config, sends, tmp_path)
    respawned, _ = _through_live_transports(config, sends, tmp_path, incarnation=1)
    assert [len(a) for a in respawned] != [len(a) for a in first]


def test_worker_action_script_round_trips_into_node_calls(tmp_path):
    """``[time, kind.value, target]`` → ``Action`` → handler, as the worker's
    init frame does it."""
    now, sent = [0.0], []
    shard = ShardWriter(str(tmp_path / "1.shard.jsonl"), pid=1, num_processes=PROCESSES)
    transport = LiveTransport(
        seed=SEED, network=NetworkConfig(), time_scale=1.0, shard=shard, clock=lambda: now[0]
    )

    class Outbox:
        def sendto(self, data, address):
            sent.append((decode_datagram(data)["r"], address))

    transport.attach_endpoint(Outbox())
    transport.set_peers({peer: ("fake", peer) for peer in range(PROCESSES)})
    worker = LiveWorker(pid=1, coordinator_port=0)
    worker.transport, worker.shard = transport, shard
    worker.node = build_node(
        1, PROCESSES, protocol="fdas", collector="rdt-lgc", collector_options={},
        transport=transport, trace=shard,
    )
    # The coordinator's encoding of the actions of pid 1 (target null unless a send).
    worker._schedule_actions([[1.0, "send", 2], [2.0, "checkpoint", None], [2.0, "send", 0]])
    transport.start_clock(0.0)
    worker.node.start()
    assert transport.run_due() == 1.0 and transport.stats.app_sent == 0
    now[0] = 1.5
    assert transport.run_due() == 2.0
    assert (transport.stats.app_sent, worker.node.basic_checkpoints) == (1, 1)
    now[0] = 2.0
    due = transport.run_due()  # what is left are the copies' delayed transmissions
    assert (transport.stats.app_sent, worker.node.basic_checkpoints) == (2, 2)
    while due is not None:
        now[0] = due
        due = transport.run_due()
    shard.close()
    assert sent == [(2, ("fake", 2)), (0, ("fake", 0))]
    with pytest.raises(ValueError, match="target"):
        worker._schedule_actions([[3.0, "send", None]])
