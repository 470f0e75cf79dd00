"""Property tests for fault injection: determinism, triviality, FIFO.

These pin the contracts the recovery layer depends on:

* the whole fault stream is a pure function of ``(seed, FaultPlan)`` —
  rerunning a simulation replays every drop/duplicate/corrupt decision
  bit for bit;
* a zero-probability plan is indistinguishable from no plan at all;
* per-link FIFO order survives every fault except explicit reorder.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmachine import (
    Crash,
    FaultPlan,
    FunctionProgram,
    ReliabilityConfig,
    RetriesExhaustedError,
    Simulator,
)

K = 3
ROUNDS = 4


def chatter(ctx):
    """Deterministic all-to-all traffic for a few rounds."""
    for r in range(ROUNDS):
        for dst in range(ctx.k):
            if dst != ctx.rank:
                ctx.send(dst, "c", (ctx.rank, r))
        yield
    received = []
    for r in range(2):  # drain stragglers deterministically
        received.extend(m.payload for m in ctx.take("c"))
        yield
    received.extend(m.payload for m in ctx.take("c"))
    return sorted(received, key=repr)  # CorruptedPayload mixes with tuples


probs = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@st.composite
def fault_plans(draw) -> FaultPlan:
    crashes = ()
    if draw(st.booleans()):
        crashes = (Crash(rank=draw(st.integers(0, K - 1)), round=draw(st.integers(0, ROUNDS))),)
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        drop=draw(probs),
        duplicate=draw(probs),
        corrupt=draw(probs),
        reorder=draw(probs),
        crashes=crashes,
        notify_crashes=False,  # chatter never blocks, so no detector needed
    )


def run_once(plan: FaultPlan | None, seed: int, observe: str = "off"):
    return Simulator(
        k=K,
        program=FunctionProgram(chatter),
        seed=seed,
        faults=plan,
        observe=observe,
        max_rounds=200,
    ).run()


class TestDeterminism:
    @given(plan=fault_plans(), seed=st.integers(0, 2**16))
    def test_same_seed_and_plan_reproduce_everything(self, plan, seed):
        a = run_once(plan, seed, observe="trace")
        b = run_once(plan, seed, observe="trace")
        assert a.outputs == b.outputs
        assert a.metrics == b.metrics  # dataclass equality: every counter
        assert a.tracer.events == b.tracer.events

    @given(
        plan=fault_plans(),
        seed=st.integers(0, 2**16),
        reliable_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15)
    def test_reliable_layer_preserves_determinism(self, plan, seed, reliable_seed):
        # The reliable layer draws no randomness, so it must not perturb
        # reproducibility either (crash-free plans only: chatter has no
        # recovery logic).  Even a failed run must fail identically.
        plan = plan.without_crashes()
        cfg = ReliabilityConfig(ack_timeout_rounds=3, max_retries=30)

        def attempt():
            sim = Simulator(k=K, program=FunctionProgram(chatter), seed=seed,
                            faults=plan, reliable=cfg, max_rounds=500)
            try:
                result = sim.run()
                return result.outputs, result.metrics
            except RetriesExhaustedError as err:
                return (err.src, err.dst, err.tag, err.attempts), sim.metrics

        assert attempt() == attempt()


class TestTrivialPlan:
    @given(seed=st.integers(0, 2**16), plan_seed=st.integers(0, 2**16))
    def test_zero_probability_plan_equals_no_plan(self, seed, plan_seed):
        faulty = run_once(FaultPlan(seed=plan_seed), seed, observe="trace")
        clean = run_once(None, seed, observe="trace")
        assert faulty.outputs == clean.outputs
        assert faulty.metrics == clean.metrics
        assert faulty.tracer.events == clean.tracer.events


class TestFifo:
    @given(
        drop=probs,
        duplicate=probs,
        corrupt=probs,
        plan_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    def test_fifo_preserved_without_reorder(self, drop, duplicate, corrupt, plan_seed, seed):
        """With reorder=0, each link's arrivals are non-decreasing in send
        round no matter what else the injector does."""
        order: dict[tuple[int, int], list[int]] = {}

        def recorder(ctx):
            for r in range(ROUNDS):
                for dst in range(ctx.k):
                    if dst != ctx.rank:
                        ctx.send(dst, "seq", r)
                yield
            for _ in range(3):
                for m in ctx.take("seq"):
                    payload = m.payload
                    if dataclasses.is_dataclass(payload):  # CorruptedPayload
                        payload = payload.original
                    order.setdefault((m.src, ctx.rank), []).append(payload)
                yield
            return None

        plan = FaultPlan(seed=plan_seed, drop=drop, duplicate=duplicate,
                         corrupt=corrupt, reorder=0.0)
        Simulator(k=K, program=FunctionProgram(recorder), seed=seed,
                  faults=plan, max_rounds=200).run()
        for link, seqs in order.items():
            assert seqs == sorted(seqs), f"link {link} violated FIFO: {seqs}"
