"""Unit tests for the round-synchronous simulator."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.kmachine import (
    CostModel,
    DeadlockError,
    FunctionProgram,
    ProtocolError,
    Simulator,
    run_program,
)


def echo_program(ctx):
    """Rank 0 pings rank 1; rank 1 pongs back."""
    if ctx.rank == 0:
        ctx.send(1, "ping", "hello")
        yield
        msg = yield from ctx.recv_one("pong")
        return msg.payload
    msg = yield from ctx.recv_one("ping")
    ctx.send(0, "pong", msg.payload + " back")
    yield
    return "done"


class TestRoundSemantics:
    def test_messages_arrive_next_round(self):
        log = []

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, "t", ctx.round)
                yield
            else:
                assert not ctx.take("t")  # round 0: nothing yet
                yield
                [msg] = ctx.take("t")
                log.append((msg.payload, ctx.round))
            return None

        Simulator(k=2, program=FunctionProgram(prog)).run()
        assert log == [(0, 1)]

    def test_echo_round_trip(self):
        result = run_program(FunctionProgram(echo_program), k=2)
        assert result.outputs == ["hello back", "done"]

    def test_rounds_counted(self):
        result = run_program(FunctionProgram(echo_program), k=2)
        # ping in flight round 0, pong sent round 1, delivered round 2.
        assert result.metrics.rounds == 2

    def test_local_only_program_costs_zero_rounds(self):
        def silent(ctx):
            total = sum(range(100))
            return total
            yield

        result = run_program(FunctionProgram(silent), k=4)
        assert result.metrics.rounds == 0
        assert result.outputs == [4950] * 4

    def test_machines_step_concurrently_within_round(self):
        """Same-round sends are invisible to peers in that round."""

        def prog(ctx):
            other = 1 - ctx.rank
            ctx.send(other, "x", ctx.rank)
            assert not ctx.take("x")
            yield
            [msg] = ctx.take("x")
            return msg.payload

        result = run_program(FunctionProgram(prog), k=2)
        assert result.outputs == [1, 0]


class TestInputsAndOutputs:
    def test_inputs_sequence(self):
        def prog(ctx):
            return ctx.local * 2
            yield

        result = run_program(FunctionProgram(prog), k=3, inputs=[1, 2, 3])
        assert result.outputs == [2, 4, 6]

    def test_inputs_callable(self):
        def prog(ctx):
            return ctx.local
            yield

        result = run_program(FunctionProgram(prog), k=3, inputs=lambda r: r * 10)
        assert result.outputs == [0, 10, 20]

    def test_inputs_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Simulator(k=3, program=FunctionProgram(lambda c: iter(())), inputs=[1])

    def test_contexts_retained(self):
        def prog(ctx):
            ctx.result = ctx.rank
            return None
            yield

        result = run_program(FunctionProgram(prog), k=2)
        assert [c.result for c in result.contexts] == [0, 1]


class TestDeterminism:
    def test_same_seed_same_run(self):
        def prog(ctx):
            vals = [float(ctx.rng.random()) for _ in range(3)]
            if ctx.rank:
                ctx.send(0, "v", vals)
                yield
                return vals
            msgs = yield from ctx.recv("v", ctx.k - 1)
            return sorted(m.payload[0] for m in msgs)

        a = run_program(FunctionProgram(prog), k=4, seed=42)
        b = run_program(FunctionProgram(prog), k=4, seed=42)
        assert a.outputs == b.outputs

    def test_different_seeds_differ(self):
        def prog(ctx):
            return float(ctx.rng.random())
            yield

        a = run_program(FunctionProgram(prog), k=2, seed=1)
        b = run_program(FunctionProgram(prog), k=2, seed=2)
        assert a.outputs != b.outputs

    def test_machine_ids_unique(self):
        def prog(ctx):
            return ctx.machine_id
            yield

        result = run_program(FunctionProgram(prog), k=16, seed=7)
        assert len(set(result.outputs)) == 16
        assert all(1 <= mid <= 16**3 for mid in result.outputs)

    def test_machine_rngs_independent(self):
        def prog(ctx):
            return tuple(int(x) for x in ctx.rng.integers(0, 2**60, 4))
            yield

        result = run_program(FunctionProgram(prog), k=8, seed=3)
        assert len(set(result.outputs)) == 8


class TestFailureModes:
    def test_deadlock_detection(self):
        def stuck(ctx):
            yield from ctx.recv("never", 1)

        with pytest.raises(DeadlockError, match="max_rounds"):
            run_program(FunctionProgram(stuck), k=2, max_rounds=50)

    def test_program_exception_wrapped(self):
        def boom(ctx):
            yield
            raise RuntimeError("kaboom")

        with pytest.raises(ProtocolError, match="kaboom"):
            run_program(FunctionProgram(boom), k=2)

    def test_messages_to_halted_machine_counted_dropped(self):
        def prog(ctx):
            if ctx.rank == 0:
                return "gone"
            yield  # rank 1 lives one round longer and mails the dead
            ctx.send(0, "late", 1)
            yield
            return "sent"

        result = run_program(FunctionProgram(prog), k=2)
        assert result.metrics.dropped_messages == 1

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator(k=0, program=FunctionProgram(lambda c: iter(())))


class TestMetricsCollection:
    def test_message_and_bit_totals(self):
        result = run_program(FunctionProgram(echo_program), k=2)
        assert result.metrics.messages == 2
        # "hello"=40 bits, "hello back"=80 bits, + 2 headers
        assert result.metrics.bits == 40 + 80 + 32

    def test_per_tag_breakdown(self):
        result = run_program(FunctionProgram(echo_program), k=2)
        assert result.metrics.per_tag_messages == {"ping": 1, "pong": 1}
        assert result.metrics.per_tag_bits["ping"] == 56

    def test_timeline_records_rounds(self):
        result = run_program(FunctionProgram(echo_program), k=2, observe="profile")
        assert len(result.metrics.timeline) >= 2
        assert result.metrics.timeline[0].messages_sent == 1

    def test_measure_compute_accumulates(self):
        def busy(ctx):
            float(np.arange(10000).sum())
            ctx.send(1 - ctx.rank, "x", 0)
            yield
            return None

        result = run_program(FunctionProgram(busy), k=2, measure_compute=True)
        assert result.metrics.compute_seconds > 0

    @pytest.mark.parametrize("measure", [False, True])
    def test_measured_runs_pause_the_collector(self, measure):
        """A collector pause inside a step must not count as compute."""
        def probe(ctx):
            yield
            return gc.isenabled()

        assert gc.isenabled()
        result = run_program(FunctionProgram(probe), k=2, measure_compute=measure)
        assert result.outputs == [not measure, not measure]
        assert gc.isenabled()

    def test_cost_model_charges_busy_rounds(self):
        model = CostModel(alpha_seconds=1.0, beta_bits_per_second=0.0,
                          gamma_seconds_per_message=0.0)
        result = run_program(FunctionProgram(echo_program), k=2, cost_model=model)
        assert result.metrics.comm_seconds == pytest.approx(2.0)

    def test_tracer_disabled_by_default(self):
        result = run_program(FunctionProgram(echo_program), k=2)
        assert not result.tracer.enabled

    def test_tracer_records_events(self):
        result = run_program(FunctionProgram(echo_program), k=2, observe="trace")
        kinds = {e.kind for e in result.tracer.events}
        assert {"send", "deliver", "halt"} <= kinds


class TestBandwidthIntegration:
    def test_queue_policy_stretches_rounds(self):
        def bulk(ctx):
            if ctx.rank == 0:
                for i in range(8):
                    ctx.send(1, "d", float(i))
                yield
                return None
            msgs = yield from ctx.recv("d", 8)
            return len(msgs)

        fast = run_program(FunctionProgram(bulk), k=2, bandwidth_bits=None)
        slow = run_program(FunctionProgram(bulk), k=2, bandwidth_bits=80)
        assert fast.metrics.rounds == 1
        assert slow.metrics.rounds == 8
        assert slow.outputs[1] == 8
