"""Simulator.run_episode: session-continuous stepping over retained state."""

from __future__ import annotations

import pytest

from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.machine import MachineContext


def _counter_program(tag_name: str, rounds: int) -> FunctionProgram:
    def body(ctx: MachineContext):
        for r in range(rounds):
            dst = (ctx.rank + 1) % ctx.k
            ctx.send(dst, f"{tag_name}/{r}", ctx.rank)
            yield
            (msg,) = yield from ctx.recv(f"{tag_name}/{r}", 1)
        return ctx.round

    return FunctionProgram(body, name=tag_name)


def test_round_clock_continues_across_episodes() -> None:
    sim = Simulator(k=3, program=_counter_program("ep0", 2), seed=1)
    first = sim.run()
    rounds_after_first = sim.metrics.rounds
    assert rounds_after_first > 0
    second = sim.run_episode(_counter_program("ep1", 2))
    # Metrics accumulate and the clock is continuous: episode 2's
    # per-machine final rounds all exceed episode 1's.
    assert sim.metrics.rounds > rounds_after_first
    assert all(b > a for a, b in zip(first.outputs, second.outputs))


def test_episode_outputs_are_per_episode() -> None:
    sim = Simulator(k=2, program=_counter_program("a", 1), seed=2)
    sim.run()
    result = sim.run_episode(_counter_program("b", 3))
    assert len(result.outputs) == 2
    # Messages from both episodes are in the cumulative tag table.
    tags = sim.metrics.per_tag_messages
    assert any(t.startswith("a/") for t in tags)
    assert any(t.startswith("b/") for t in tags)


def test_contexts_retain_local_state_between_episodes() -> None:
    def stash(ctx: MachineContext):
        ctx.local["seen"] = ctx.local.get("seen", 0) + 1
        return ctx.local["seen"]
        yield  # pragma: no cover - makes this a generator

    sim = Simulator(
        k=2,
        program=FunctionProgram(stash, name="stash0"),
        inputs=[{}, {}],
        seed=3,
    )
    first = sim.run()
    second = sim.run_episode(FunctionProgram(stash, name="stash1"))
    assert first.outputs == [1, 1]
    assert second.outputs == [2, 2]


def test_machine_rng_streams_advance_not_reset() -> None:
    def draw(ctx: MachineContext):
        return float(ctx.rng.random())
        yield  # pragma: no cover - makes this a generator

    sim = Simulator(k=2, program=FunctionProgram(draw, name="d0"), seed=4)
    first = sim.run()
    second = sim.run_episode(FunctionProgram(draw, name="d1"))
    # Same stream, next values: episodes never replay randomness.
    assert first.outputs != second.outputs


def test_spans_share_the_session_clock() -> None:
    def phase(name):
        def body(ctx: MachineContext):
            with ctx.obs.span(name):
                yield
                yield
            return None

        return FunctionProgram(body, name=name)

    sim = Simulator(k=2, program=phase("one"), seed=5, observe="spans")
    sim.run()
    sim.run_episode(phase("two"))
    spans = sim.span_recorder.spans
    one = next(s for s in spans if s.name == "one" and s.machine == 0)
    two = next(s for s in spans if s.name == "two" and s.machine == 0)
    assert two.start_round >= one.end_round


def test_closed_generators_raise_cleanly_on_bad_episode() -> None:
    def boom(ctx: MachineContext):
        raise RuntimeError("bad program")
        yield  # pragma: no cover - makes this a generator

    from repro.kmachine.errors import ProtocolError

    sim = Simulator(k=2, program=_counter_program("ok", 1), seed=6)
    sim.run()
    with pytest.raises(ProtocolError, match="bad program"):
        sim.run_episode(FunctionProgram(boom, name="boom"))
    # The session survives: metrics stay readable, a new episode runs.
    result = sim.run_episode(_counter_program("again", 1))
    assert len(result.outputs) == 2
