"""Unit tests for the broadcast, gather and reduce collectives."""

from __future__ import annotations

from repro.kmachine import FunctionProgram, broadcast, gather, run_program, tree_reduce


def run(fn, k=4, **kwargs):
    return run_program(FunctionProgram(fn), k=k, **kwargs)


class TestBroadcast:
    def test_everyone_gets_root_payload(self):
        def prog(ctx):
            value = yield from broadcast(ctx, 1, "b", ctx.rank * 100)
            return value

        result = run(prog)
        assert result.outputs == [100] * 4

    def test_costs_k_minus_1_messages_one_round(self):
        def prog(ctx):
            yield from broadcast(ctx, 0, "b", "x")
            return None

        result = run(prog)
        assert result.metrics.messages == 3
        assert result.metrics.rounds == 1


class TestGather:
    def test_root_gets_rank_indexed_values(self):
        def prog(ctx):
            values = yield from gather(ctx, 2, "g", ctx.rank * 10)
            return values

        result = run(prog)
        assert result.outputs[2] == [0, 10, 20, 30]
        assert result.outputs[0] is None

    def test_message_count(self):
        def prog(ctx):
            yield from gather(ctx, 0, "g", 1)
            return None

        result = run(prog)
        assert result.metrics.messages == 3


class TestReduce:
    def test_sum_reduction(self):
        def prog(ctx):
            total = yield from tree_reduce(ctx, 0, "r", ctx.rank + 1, lambda a, b: a + b)
            return total

        result = run(prog)
        assert result.outputs[0] == 10
        assert result.outputs[1] is None

    def test_noncommutative_op_is_rank_ordered(self):
        # Each receiver folds op(own, received) and every subtree holds
        # the next run of ranks, so the fold reads in rank order.
        def prog(ctx):
            out = yield from tree_reduce(ctx, 0, "r", str(ctx.rank), lambda a, b: a + b)
            return out

        result = run(prog)
        assert result.outputs[0] == "0123"


class TestComposition:
    def test_sequential_collectives_do_not_cross_talk(self):
        def prog(ctx):
            first = yield from gather(ctx, 0, "one", ctx.rank)
            second = yield from gather(ctx, 0, "two", ctx.rank * 2)
            shared = yield from broadcast(ctx, 0, "three", (first, second))
            return shared

        result = run(prog, k=3)
        assert result.outputs == [([0, 1, 2], [0, 2, 4])] * 3

    def test_k1_degenerate(self):
        def prog(ctx):
            v = yield from broadcast(ctx, 0, "b", 5)
            g = yield from gather(ctx, 0, "g", 7)
            return (v, g)

        result = run(prog, k=1)
        assert result.outputs == [(5, [7])]
