"""Unit tests for MachineContext and the Program abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kmachine.errors import AddressError, ProtocolError
from repro.kmachine.machine import FunctionProgram, MachineContext, Program
from repro.kmachine.message import Message
from repro.kmachine.reliable import (
    RELIABLE_ACK_TAG,
    Envelope,
    ReliableMachineContext,
    payload_checksum,
)


def ctx_pair(k=3):
    rngs = [np.random.default_rng(i) for i in range(k)]
    return [MachineContext(rank=i, k=k, rng=rngs[i]) for i in range(k)]


def incoming(dst_ctx, src, tag, payload=None):
    dst_ctx.deliver(
        [Message(src=src, dst=dst_ctx.rank, tag=tag, payload=payload, bits=64)]
    )


class TestSending:
    def test_send_queues_message_with_size(self):
        ctx = ctx_pair()[0]
        ctx.send(1, "x", 1.5)
        [msg] = ctx.drain_outbox()
        assert (msg.src, msg.dst, msg.tag, msg.payload) == (0, 1, "x", 1.5)
        assert msg.bits == 64 + 16  # one word + header

    def test_self_send_is_protocol_error(self):
        ctx = ctx_pair()[0]
        with pytest.raises(ProtocolError):
            ctx.send(0, "x")

    def test_out_of_range_destination(self):
        ctx = ctx_pair()[0]
        with pytest.raises(AddressError):
            ctx.send(7, "x")

    def test_broadcast_hits_everyone_else(self):
        ctx = ctx_pair(k=5)[2]
        ctx.broadcast("b", 9)
        msgs = ctx.drain_outbox()
        assert sorted(m.dst for m in msgs) == [0, 1, 3, 4]
        assert all(m.payload == 9 for m in msgs)

    def test_send_to_many(self):
        ctx = ctx_pair(k=5)[0]
        ctx.send_to_many([1, 3], "m", "hi")
        assert sorted(m.dst for m in ctx.drain_outbox()) == [1, 3]

    def test_sent_counters(self):
        ctx = ctx_pair()[0]
        ctx.send(1, "x", 1)
        ctx.send(2, "x", 2)
        assert ctx.sent_messages == 2
        assert ctx.sent_bits == 2 * 80

    def test_drain_outbox_empties(self):
        ctx = ctx_pair()[0]
        ctx.send(1, "x")
        ctx.drain_outbox()
        assert ctx.drain_outbox() == []


class TestReceiving:
    def test_take_filters_by_tag(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "a", 1)
        incoming(ctx, 2, "b", 2)
        got = ctx.take("a")
        assert [m.payload for m in got] == [1]
        assert ctx.pending_count() == 1  # "b" still buffered

    def test_take_filters_by_src(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "a", 1)
        incoming(ctx, 2, "a", 2)
        got = ctx.take("a", src=2)
        assert [m.payload for m in got] == [2]

    def test_take_none_matches_everything(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "a")
        incoming(ctx, 2, "b")
        assert len(ctx.take()) == 2

    def test_peek_does_not_consume(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "a")
        assert len(ctx.peek_pending()) == 1
        assert len(ctx.peek_pending()) == 1

    def test_recv_generator_waits_for_count(self):
        ctx = ctx_pair()[0]
        gen = ctx.recv("r", 2)
        next(gen)  # not enough yet -> yields
        incoming(ctx, 1, "r", "first")
        next(gen)
        incoming(ctx, 2, "r", "second")
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert sorted(m.payload for m in stop.value.value) == ["first", "second"]

    def test_recv_returns_immediately_if_buffered(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "r", 1)
        gen = ctx.recv("r", 1)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value[0].payload == 1

    def test_recv_overflow_is_protocol_error(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 1, "r", 1)
        incoming(ctx, 2, "r", 2)
        gen = ctx.recv("r", 1)
        with pytest.raises(ProtocolError):
            next(gen)

    def test_recv_max_rounds_guard(self):
        # max_rounds counts rounds of the clock, which every round driver
        # advances by one per resume
        ctx = ctx_pair()[0]
        gen = ctx.recv("r", 1, max_rounds=2)
        next(gen)
        ctx.round += 1
        next(gen)
        ctx.round += 1
        with pytest.raises(ProtocolError):
            next(gen)

    def test_recv_one_returns_single_message(self):
        ctx = ctx_pair()[0]
        incoming(ctx, 2, "r", "only")
        gen = ctx.recv_one("r")
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value.payload == "only"


class TestInboxOrder:
    """The per-tag inbox still hands out messages in global arrival order."""

    ARRIVALS = [(1, "a", 0), (2, "b", 1), (1, "b", 2), (2, "a", 3), (1, "c", 4),
                (2, "a", 5), (1, "a", 6)]

    def filled(self):
        ctx = ctx_pair()[0]
        for src, tag, payload in self.ARRIVALS:
            incoming(ctx, src, tag, payload)
        return ctx

    def test_take_none_returns_arrival_order_across_tags(self):
        assert [m.payload for m in self.filled().take(None)] == list(range(7))

    def test_peek_pending_returns_arrival_order_across_tags(self):
        ctx = self.filled()
        assert [m.payload for m in ctx.peek_pending()] == list(range(7))
        ctx.take("b")
        assert [m.payload for m in ctx.peek_pending()] == [0, 3, 4, 5, 6]

    def test_take_none_by_src_keeps_other_sources_in_order(self):
        ctx = self.filled()
        assert [m.payload for m in ctx.take(None, src=2)] == [1, 3, 5]
        assert [m.payload for m in ctx.peek_pending()] == [0, 2, 4, 6]

    def test_take_tag_and_src_leaves_other_sources_buffered(self):
        ctx = self.filled()
        assert [m.payload for m in ctx.take("a", src=1)] == [0, 6]
        assert [(m.src, m.payload) for m in ctx.take("a")] == [(2, 3), (2, 5)]
        assert ctx.take("a") == []

    def test_later_arrivals_merge_after_buffered_ones(self):
        ctx = self.filled()
        ctx.take("a", src=2)
        incoming(ctx, 2, "a", 7)
        incoming(ctx, 1, "b", 8)
        assert [m.payload for m in ctx.take("a")] == [0, 6, 7]
        assert [m.payload for m in ctx.take(None)] == [1, 2, 4, 8]

    def test_pending_count_after_partial_takes(self):
        ctx = self.filled()
        assert ctx.pending_count() == 7
        ctx.take("a", src=1)
        assert ctx.pending_count() == 5
        ctx.take("zzz")
        ctx.take("c", src=2)
        assert ctx.pending_count() == 5
        ctx.take("b")
        assert ctx.pending_count() == 3
        ctx.take(None, src=1)
        assert ctx.pending_count() == 2
        ctx.take(None)
        assert ctx.pending_count() == 0
        assert ctx.peek_pending() == ()

    def test_discard_pending_reports_dropped_count(self):
        ctx = self.filled()
        ctx.take("b", src=2)
        assert ctx.discard_pending() == 6
        assert ctx.pending_count() == 0
        assert ctx.take(None) == []
        assert ctx.discard_pending() == 0

    def test_reliable_context_interleaved_tags_acks_and_duplicate(self):
        ctx = ReliableMachineContext(rank=0, k=3, rng=np.random.default_rng(0))
        ctx.send(1, "out", "x")  # seq 0 to machine 1, awaiting its ACK
        assert ctx.unacked_count() == 1
        ctx.drain_outbox()

        def env(src, tag, seq, payload):
            return Message(src=src, dst=0, tag=tag, bits=64,
                           payload=Envelope(seq, payload_checksum(payload), payload))

        ctx.deliver([
            env(1, "a", 0, "a1"),
            env(2, "b", 0, "b2"),
            Message(src=1, dst=0, tag=RELIABLE_ACK_TAG, payload=0, bits=64),
            env(2, "a", 1, "a2"),
            env(1, "a", 0, "a1"),  # duplicate of the first arrival
            env(1, "b", 1, "b1"),
        ])
        assert ctx.unacked_count() == 0
        assert ctx.duplicates_suppressed == 1
        assert ctx.pending_count() == 4
        assert [m.payload for m in ctx.peek_pending()] == ["a1", "b2", "a2", "b1"]
        assert [m.payload for m in ctx.take("a", src=2)] == ["a2"]
        assert [m.payload for m in ctx.take(None)] == ["a1", "b2", "b1"]
        # every envelope is acknowledged, the duplicate included
        acks = [m for m in ctx.drain_outbox() if m.tag == RELIABLE_ACK_TAG]
        assert [(m.dst, m.payload) for m in acks] == [(1, 0), (2, 0), (2, 1), (1, 0), (1, 1)]


class TestContextValidation:
    def test_rank_must_be_in_range(self):
        with pytest.raises(ValueError):
            MachineContext(rank=3, k=3, rng=np.random.default_rng())

    def test_default_machine_id(self):
        ctx = MachineContext(rank=2, k=4, rng=np.random.default_rng())
        assert ctx.machine_id == 3


class TestProgram:
    def test_run_must_be_generator(self):
        class Bad(Program):
            def run(self, ctx):
                return 42

        with pytest.raises(ProtocolError, match="generator"):
            Bad().instantiate(ctx_pair()[0])

    def test_function_program_wraps_and_names(self):
        def my_proto(ctx):
            yield

        prog = FunctionProgram(my_proto)
        assert prog.name == "my_proto"
        gen = prog.instantiate(ctx_pair()[0])
        next(gen)

    def test_function_program_custom_name(self):
        prog = FunctionProgram(lambda ctx: iter(()), name="custom")
        assert prog.name == "custom"

    def test_base_program_run_raises(self):
        with pytest.raises(NotImplementedError):
            Program().run(ctx_pair()[0])
