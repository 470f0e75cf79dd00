"""Unit tests for RNG streams, the cost model, tracing, and metrics."""

from __future__ import annotations

import pytest

from repro.kmachine.metrics import Metrics
from repro.kmachine.rng import spawn_named_stream, spawn_streams, streams_are_disjoint
from repro.kmachine.timing import DEFAULT_COST_MODEL, ZERO_COST_MODEL, CostModel
from repro.kmachine.tracing import NullTracer, Tracer


class TestRngStreams:
    def test_spawn_count(self):
        assert len(spawn_streams(1, 5)) == 5

    def test_reproducible(self):
        a = spawn_streams(7, 3)
        b = spawn_streams(7, 3)
        for ga, gb in zip(a, b):
            assert ga.random() == gb.random()

    def test_streams_disjoint(self):
        assert streams_are_disjoint(spawn_streams(1, 16))

    def test_none_seed_uses_entropy(self):
        a = spawn_streams(None, 2)
        b = spawn_streams(None, 2)
        assert a[0].random() != b[0].random()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            spawn_streams(1, 0)

    def test_named_streams_differ_by_name(self):
        a = spawn_named_stream(5, "data")
        b = spawn_named_stream(5, "queries")
        assert a.random() != b.random()

    def test_named_streams_reproducible(self):
        assert (
            spawn_named_stream(5, "x", 3).random()
            == spawn_named_stream(5, "x", 3).random()
        )


class TestCostModel:
    def test_idle_round_default_free(self):
        assert DEFAULT_COST_MODEL.round_cost(0, any_traffic=False) == 0.0

    def test_busy_round_charges_alpha_plus_transmit(self):
        model = CostModel(alpha_seconds=1e-3, beta_bits_per_second=1e6,
                          gamma_seconds_per_message=0.0)
        assert model.round_cost(1000, True) == pytest.approx(1e-3 + 1e-3)

    def test_gamma_charges_busiest_receiver(self):
        model = CostModel(alpha_seconds=0.0, beta_bits_per_second=0.0,
                          gamma_seconds_per_message=1e-6)
        assert model.round_cost(0, True, max_dst_messages=500) == pytest.approx(5e-4)

    def test_zero_beta_disables_transmit_term(self):
        model = CostModel(alpha_seconds=2.0, beta_bits_per_second=0.0)
        assert model.round_cost(10**9, True) == 2.0

    def test_zero_model_is_free(self):
        assert ZERO_COST_MODEL.round_cost(10**9, True) == 0.0

    def test_idle_round_cost_configurable(self):
        model = CostModel(idle_round_seconds=0.5)
        assert model.round_cost(0, False) == 0.5


class TestMetrics:
    def test_record_send_accumulates(self):
        m = Metrics()
        m.record_send("a", 100)
        m.record_send("a", 50)
        m.record_send("b", 10)
        assert m.messages == 3
        assert m.bits == 160
        assert m.per_tag_messages == {"a": 2, "b": 1}
        assert m.per_tag_bits == {"a": 150, "b": 10}

    def test_simulated_seconds_is_sum(self):
        m = Metrics(compute_seconds=1.0, comm_seconds=2.5)
        assert m.simulated_seconds == 3.5

    def test_merge_sums_and_maxes(self):
        a = Metrics(rounds=3, messages=5, bits=100, compute_seconds=1.0,
                    max_link_queue_bits=50)
        a.record_send("x", 1)
        b = Metrics(rounds=2, messages=1, bits=10, comm_seconds=0.5,
                    max_link_queue_bits=80)
        b.record_send("x", 1)
        merged = a.merge(b)
        assert merged.rounds == 5
        assert merged.max_link_queue_bits == 80
        assert merged.per_tag_messages == {"x": 2}
        assert merged.simulated_seconds == pytest.approx(1.5)

    def test_summary_contains_key_fields(self):
        text = Metrics(rounds=7, messages=9).summary()
        assert "rounds=7" in text and "messages=9" in text


class TestTracer:
    def test_records_and_filters(self):
        t = Tracer()
        t.record(0, "send", machine=1, tag="x")
        t.record(1, "halt", machine=1)
        assert len(t.of_kind("send")) == 1
        assert t.rounds_seen() == 2

    def test_format_filter(self):
        t = Tracer()
        t.record(0, "send", machine=0, dst=1)
        t.record(0, "deliver", machine=1)
        text = t.format(kinds=["send"])
        assert "send" in text and "deliver" not in text

    def test_null_tracer_is_inert(self):
        t = NullTracer()
        t.record(0, "send")
        assert t.of_kind("send") == []
        assert t.rounds_seen() == 0
        assert t.format() == ""
        assert not t.enabled


class TestTracerRingBuffer:
    """Event retention: the tracer keeps every event, oldest first."""

    def test_default_is_unbounded(self):
        t = Tracer()
        for i in range(1000):
            t.record(i, "send")
        assert len(t.events) == 1000
        assert [e.round for e in t.events] == list(range(1000))

    def test_queries_work_on_ring(self):
        t = Tracer()
        t.record(0, "send")
        t.record(1, "deliver")
        t.record(2, "halt")
        assert [e.kind for e in t.events] == ["send", "deliver", "halt"]
        assert len(t.of_kind("send")) == 1
        assert t.rounds_seen() == 3
        assert "halt" in t.format()

    def test_events_is_read_only_property(self):
        t = Tracer()
        with pytest.raises(AttributeError):
            t.events = []
