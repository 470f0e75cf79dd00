"""Unit tests for the binomial-tree reduction."""

from __future__ import annotations

import pytest

from repro.kmachine import (
    CostModel,
    FunctionProgram,
    broadcast,
    gather,
    run_program,
    tree_reduce,
)


class TestTreeReduce:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8, 15, 16, 32])
    def test_sum(self, k):
        def prog(ctx):
            total = yield from tree_reduce(ctx, 0, "tr", ctx.rank + 1, lambda a, b: a + b)
            return total

        result = run_program(FunctionProgram(prog), k=k)
        assert result.outputs[0] == k * (k + 1) // 2
        assert all(o is None for o in result.outputs[1:])

    def test_nonzero_root(self):
        def prog(ctx):
            return (yield from tree_reduce(ctx, 3, "tr", 1, lambda a, b: a + b))

        result = run_program(FunctionProgram(prog), k=9)
        assert result.outputs[3] == 9

    def test_message_and_round_counts(self):
        def prog(ctx):
            yield from tree_reduce(ctx, 0, "tr", 1, lambda a, b: a + b)
            return None

        result = run_program(FunctionProgram(prog), k=16)
        assert result.metrics.messages == 15
        assert result.metrics.rounds <= 5

    def test_max_reduction(self):
        def prog(ctx):
            return (yield from tree_reduce(ctx, 0, "tr", ctx.rank, max))

        result = run_program(FunctionProgram(prog), k=11)
        assert result.outputs[0] == 10

    def test_composes_with_following_phase(self):
        """All machines stay round-aligned after the reduce."""
        def prog(ctx):
            total = yield from tree_reduce(ctx, 0, "tr", 1, lambda a, b: a + b)
            value = yield from broadcast(ctx, 0, "b", total)
            return value

        result = run_program(FunctionProgram(prog), k=12)
        assert result.outputs == [12] * 12


class TestGammaAdvantage:
    def test_tree_reduce_cheaper_under_receiver_overhead(self):
        """The γ term: star gather lands k−1 messages on the root in
        one round; the tree never exceeds one per machine per round,
        so its modelled comm time is lower for pure-γ costs."""
        k = 64
        model = CostModel(alpha_seconds=0.0, beta_bits_per_second=0.0,
                          gamma_seconds_per_message=1e-3)

        def star(ctx):
            yield from gather(ctx, 0, "g", 1)
            return None

        def tree(ctx):
            yield from tree_reduce(ctx, 0, "tr", 1, lambda a, b: a + b)
            return None

        star_t = run_program(FunctionProgram(star), k=k, cost_model=model).metrics
        tree_t = run_program(FunctionProgram(tree), k=k, cost_model=model).metrics
        assert tree_t.comm_seconds < star_t.comm_seconds / 4
