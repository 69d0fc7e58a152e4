"""A link keeps its next draws, not a generator, and draws what one would.

``LinkFates`` holds each link's stream as its first ``LINK_BUFFERED_DRAWS``
values and builds ``random.Random(seed)`` only for a link that uses them up.
Differential tests: every channel kind, on application and control traffic
and on a respawned incarnation's salted streams, gives the same delivery
times and the same stats as a ``LinkFates`` whose ``_link_rng`` returns
``random.Random(seed)`` itself, at draw counts on both sides of the buffer's
end.
"""

import random

import pytest

from repro.simulation.channels import (
    DuplicatingChannel,
    GilbertElliottChannel,
    LatencyMatrixChannel,
    UniformChannel,
)
from repro.simulation.network import LINK_BUFFERED_DRAWS, LinkFates, NetworkConfig

B = LINK_BUFFERED_DRAWS
SEED = 11
PROCESSES = 3
LINKS = [(s, r) for s in range(PROCESSES) for r in range(PROCESSES) if s != r]
DRAW_COUNTS = (1, B - 1, B, B + 1, 3 * B)

CHANNELS = {
    "uniform": UniformChannel(),
    "lossy-uniform": UniformChannel(drop_probability=0.3),
    "gilbert-elliott": GilbertElliottChannel(loss_good=0.1, p_good_to_bad=0.3),
    "duplicating-over-lossy": DuplicatingChannel(
        channel=UniformChannel(drop_probability=0.2), duplicate_probability=0.5, copies=3
    ),
    "latency-matrix": LatencyMatrixChannel.of(
        [[0.0, 1.0, 2.5], [1.5, 0.0, 3.0], [2.0, 0.5, 0.0]], jitter=0.7
    ),
}


class _CountedRandom(random.Random):
    """``random.Random(seed)``, counting its draws (``uniform`` included)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _reference(channel, incarnation, monkeypatch):
    """A ``LinkFates`` whose every link holds ``random.Random(seed)``, and its
    streams by ``(label, sender, receiver)``."""
    fates = LinkFates(SEED, NetworkConfig(channel=channel), incarnation=incarnation)
    streams = {}

    def generator(label, sender, receiver):
        rng = streams[label, sender, receiver] = _CountedRandom(
            fates._link_seed(label, sender, receiver)
        )
        return rng

    monkeypatch.setattr(fates, "_link_rng", generator)
    return fates, streams


def _drawn(streams, label, sender, receiver):
    stream = streams.get((label, sender, receiver))
    return 0 if stream is None else stream.draws


@pytest.mark.parametrize("draws", DRAW_COUNTS)
@pytest.mark.parametrize("incarnation", [0, 1])
@pytest.mark.parametrize("kind", sorted(CHANNELS))
def test_app_and_control_draws_equal_a_generator_per_link(
    kind, incarnation, draws, monkeypatch
):
    channel = CHANNELS[kind]
    fates = LinkFates(SEED, NetworkConfig(channel=channel), incarnation=incarnation)
    reference, streams = _reference(channel, incarnation, monkeypatch)
    for sender, receiver in LINKS:
        now = 0.0
        while _drawn(streams, "app", sender, receiver) < draws:
            assert fates.app_delivery_times(sender, receiver, now) == (
                reference.app_delivery_times(sender, receiver, now)
            )
            now += 0.25
        for _ in range(draws):
            assert fates.control_latency(sender, receiver) == (
                reference.control_latency(sender, receiver)
            )
        assert _drawn(streams, "control", sender, receiver) == draws
    assert fates.stats == reference.stats
    assert fates.stats.app_sent >= len(LINKS)


def test_a_sample_that_crosses_the_buffer_end_draws_the_same(monkeypatch):
    """A duplicating channel's sample takes up to five draws, so some message
    takes the buffer's last draw and the generator's first ones."""
    channel = CHANNELS["duplicating-over-lossy"]
    fates = LinkFates(SEED, NetworkConfig(channel=channel))
    reference, streams = _reference(channel, 0, monkeypatch)
    crossings = 0
    for sender, receiver in LINKS:
        for message in range(2 * B):
            before = _drawn(streams, "app", sender, receiver)
            times = fates.app_delivery_times(sender, receiver, float(message))
            assert times == reference.app_delivery_times(sender, receiver, float(message))
            crossings += before < B < _drawn(streams, "app", sender, receiver)
    assert crossings > 0
    assert fates.stats == reference.stats
