"""Per-round metric history of a real run: the profile timeline and the
cumulative (round, messages, bits) counter track exported from it."""

from __future__ import annotations

from repro.kmachine import FunctionProgram, Simulator
from repro.obs.export import ROUND_TICK_US, chrome_trace


def chatter(ctx):
    """A few rounds of traffic so the timeline has something to record."""
    for _ in range(3):
        ctx.send((ctx.rank + 1) % ctx.k, "ring", ctx.rank)
        yield
        yield from ctx.recv_one("ring")
    return None


def run(k=3):
    return Simulator(
        k, FunctionProgram(chatter), seed=2, observe="profile"
    ).run()


def cumulative_samples(res):
    """The run's ``(round, messages, bits)`` running totals, one per
    timeline record, as the Chrome export's cumulative track carries them."""
    doc = chrome_trace(timeline=res.metrics.timeline)
    return [
        (e["ts"] // ROUND_TICK_US, e["args"]["messages"], e["args"]["bits"])
        for e in doc["traceEvents"]
        if e["ph"] == "C" and e["name"] == "cumulative"
    ]


class TestMetricsHistory:
    def test_samples_cumulative_and_monotone(self):
        res = run()
        samples = cumulative_samples(res)
        assert len(samples) >= res.metrics.rounds
        rounds = [r for r, _, _ in samples]
        assert rounds == sorted(rounds)
        messages = [m for _, m, _ in samples]
        assert messages == sorted(messages)
        assert messages[-1] == res.metrics.messages
        bits = [b for _, _, b in samples]
        assert bits == sorted(bits)
        assert bits[-1] == res.metrics.bits

    def test_messages_per_round_reconstruct_total(self):
        res = run()
        deltas = [r.messages_sent for r in res.metrics.timeline]
        assert sum(deltas) == res.metrics.messages
        assert all(d >= 0 for d in deltas)
        # The exported running totals are exactly the prefix sums.
        running, total = [], 0
        for d in deltas:
            total += d
            running.append(total)
        assert [m for _, m, _ in cumulative_samples(res)] == running
