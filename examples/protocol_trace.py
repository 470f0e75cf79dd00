#!/usr/bin/env python
"""Watch Algorithm 1 run, round by round.

Runs a deliberately tiny distributed selection (12 values, 3 machines,
ℓ = 5) with the simulator's tracer enabled and prints an annotated
transcript: every send, delivery and halt, plus the leader's pivot
decisions.  Reading this output next to the paper's Algorithm 1
pseudocode is the fastest way to understand the protocol — and the
repo's simulator.

Run:  python examples/protocol_trace.py

With ``--jsonl PATH`` and/or ``--chrome PATH`` the run also exports
the structured trace (phase spans + events + metrics) in the
:mod:`repro.obs` formats; the Chrome JSON loads directly into
https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import SelectionProgram
from repro.kmachine import Simulator
from repro.obs import phase_attribution, write_chrome_trace, write_jsonl
from repro.points.ids import keyed_array

VALUES = [42.0, 7.0, 99.0, 13.0, 58.0, 21.0, 86.0, 3.0, 64.0, 35.0, 71.0, 50.0]
L = 5
K = 3
SEED = 12


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jsonl", help="export a structured JSONL event log here")
    parser.add_argument(
        "--chrome", help="export Chrome trace_event JSON here (Perfetto-loadable)"
    )
    args = parser.parse_args()

    ids = list(range(1, len(VALUES) + 1))
    # Hand-placed shards so the transcript is stable and readable.
    placement = [VALUES[0::3], VALUES[1::3], VALUES[2::3]]
    id_placement = [ids[0::3], ids[1::3], ids[2::3]]
    inputs = [keyed_array(vals, pids) for vals, pids in zip(placement, id_placement)]

    print(f"values: {VALUES}")
    for rank, vals in enumerate(placement):
        print(f"  machine {rank} holds {vals}")
    print(f"goal: the l={L} smallest, leader = machine 0\n")

    sim = Simulator(
        k=K,
        program=SelectionProgram(L),
        inputs=inputs,
        seed=SEED,
        bandwidth_bits=512,
        observe="trace",
    )
    result = sim.run()

    print("=== wire transcript (sends only) ===")
    for event in result.tracer.of_kind("send"):
        print(
            f"  round {event.round:>2}: m{event.machine} -> "
            f"m{event.detail['dst']}  [{event.detail['tag']}]"
        )

    leader = next(o for o in result.outputs if o.is_leader)
    print("\n=== leader's pivot decisions ===")
    for i, (pivot, s_before, s_below) in enumerate(leader.stats.pivot_history):
        verdict = (
            "boundary found!" if s_below == L or s_below == s_before
            else ("discard above pivot" if s_below > L else "accept below, recurse above")
        )
        print(
            f"  iteration {i}: pivot value {pivot.value:>5.1f}  "
            f"in-range {s_before:>2}  count<=pivot {s_below:>2}  -> {verdict}"
        )

    selected = sorted(
        float(v) for o in result.outputs for v in o.selected["value"]
    )
    print(f"\nselected: {selected}")
    print(f"expected: {sorted(VALUES)[:L]}")
    assert selected == sorted(VALUES)[:L]
    print(
        f"\ntotals: {result.metrics.rounds} rounds, "
        f"{result.metrics.messages} messages, {result.metrics.bits} bits "
        f"({leader.stats.iterations} pivot iterations for n={len(VALUES)})"
    )

    print("\n=== phase attribution (leader span tree) ===")
    print(phase_attribution(result.spans, result.metrics.messages).format())

    if args.jsonl:
        path = write_jsonl(
            args.jsonl, result.tracer, result.spans, result.metrics,
            meta={"name": "protocol-trace", "k": K, "l": L, "seed": SEED},
        )
        print(f"\nwrote {path}")
    if args.chrome:
        path = write_chrome_trace(
            args.chrome, result.tracer, result.spans, result.metrics.timeline,
            name="protocol-trace",
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
