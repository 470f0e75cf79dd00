"""Integration: tracing and timeline observability on real protocols.

The simulator's tracer and per-round timeline exist so protocol
behaviour can be *audited*, not just summarized.  These tests run the
paper's protocols with observability on and check structural
invariants of what gets recorded — the same facilities
``examples/protocol_trace.py`` demonstrates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import KNNProgram
from repro.core.selection import SelectionProgram
from repro.kmachine import Simulator
from repro.points.dataset import make_dataset
from repro.points.ids import keyed_array
from repro.points.partition import shard_dataset


@pytest.fixture(scope="module")
def traced_selection():
    rng = np.random.default_rng(3)
    n, k = 200, 4
    values = rng.uniform(0, 1, n)
    ids = np.arange(1, n + 1)
    chunks = np.array_split(rng.permutation(n), k)
    inputs = [keyed_array(values[c], ids[c]) for c in chunks]
    sim = Simulator(k=k, program=SelectionProgram(25), inputs=inputs, seed=4,
                    bandwidth_bits=512, observe="trace")
    return sim.run()


class TestTraceInvariants:
    def test_every_send_has_a_matching_delivery(self, traced_selection):
        sends = traced_selection.tracer.of_kind("send")
        delivers = traced_selection.tracer.of_kind("deliver")
        assert len(sends) == len(delivers) + traced_selection.metrics.dropped_messages
        assert len(sends) == traced_selection.metrics.messages

    def test_deliveries_never_precede_sends(self, traced_selection):
        """A tag's first delivery is strictly after its first send."""
        first_send: dict[str, int] = {}
        for e in traced_selection.tracer.of_kind("send"):
            first_send.setdefault(e.detail["tag"], e.round)
        for e in traced_selection.tracer.of_kind("deliver"):
            assert e.round > first_send[e.detail["tag"]] - 1
            assert e.round >= first_send[e.detail["tag"]] + 1

    def test_every_machine_halts_exactly_once(self, traced_selection):
        halts = traced_selection.tracer.of_kind("halt")
        assert sorted(e.machine for e in halts) == [0, 1, 2, 3]

    def test_leader_is_the_top_talker(self, traced_selection):
        """Algorithm 1's leader (rank 0 here) initiates the traffic."""
        sends_by_machine: dict[int, int] = {}
        for e in traced_selection.tracer.of_kind("send"):
            sends_by_machine[e.machine] = sends_by_machine.get(e.machine, 0) + 1
        assert max(sends_by_machine, key=sends_by_machine.get) == 0

    def test_format_renders_rounds(self, traced_selection):
        text = traced_selection.tracer.format(kinds=["send"])
        assert "[r" in text and "send" in text


class TestTimelineInvariants:
    def test_timeline_covers_every_round(self, traced_selection):
        timeline = traced_selection.metrics.timeline
        assert [rec.round for rec in timeline] == list(range(len(timeline)))
        assert len(timeline) >= traced_selection.metrics.rounds

    def test_timeline_totals_match_metrics(self, traced_selection):
        timeline = traced_selection.metrics.timeline
        assert sum(r.messages_sent for r in timeline) == traced_selection.metrics.messages
        assert sum(r.bits_sent for r in timeline) == traced_selection.metrics.bits

    def test_active_machines_monotone_nonincreasing(self, traced_selection):
        active = [r.active_machines for r in traced_selection.metrics.timeline]
        assert all(a >= b for a, b in zip(active, active[1:]))

    def test_knn_timeline_shows_sampling_burst(self):
        """Algorithm 2's timeline has an early high-traffic phase (the
        sample transfer) followed by constant-size selection rounds."""
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.uniform(0, 1, (2000, 2)), seed=5)
        shards = shard_dataset(ds, 8, rng)
        sim = Simulator(8, KNNProgram(np.array([0.5, 0.5]), 256, safe_mode=False),
                        shards, seed=6, bandwidth_bits=512, observe="profile")
        res = sim.run()
        timeline = res.metrics.timeline
        burst = max(r.messages_sent for r in timeline)
        tail = [r.messages_sent for r in timeline[-8:]]
        assert burst > 10 * max(max(tail), 1)
