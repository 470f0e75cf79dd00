"""SERVE — online serving vs one-cluster-per-query: the amortization win.

The serving layer's claim: keeping the cluster resident and scheduling
queries through micro-batches, an exact-hit cache and warm starts keeps
the *amortized round cost per query* at or below 5.45 rounds — the
served cost recorded when it first beat the independent
``distributed_knn`` baseline by ≥ 5×, at a batching window ≥ 8.  Since
Algorithm 2's exact regime (ℓ ≤ 12⌈log₂ℓ⌉) made that baseline itself
about 6× cheaper, the ratio to it is printed and recorded, not gated.

This bench serves a seeded 200-query mixed workload (bursty + drift +
uniform — the three traffic shapes the reuse tiers are built for),
verifies every answer against brute force, runs the *full* 200-call
independent baseline, and records throughput, p50/p99 latency, the
cache-hit/warm-start rates and the round-cost win in
``benchmarks/results/BENCH_serve.json`` so future PRs can watch all of
them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.driver import distributed_knn
from repro.sequential.brute import brute_force_knn_ids
from repro.serve import KNNService, Workload, make_workload

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_serve.json"

K = 4
L = 8
N = 4000
QUERIES = 200
SEED = 7
#: the issue's target regime: batching window >= 8
WINDOW = 8.0
MAX_BATCH = 16
#: served rounds per query before the exact regime (1090 / 200)
MAX_ROUNDS_PER_QUERY = 5.45


def _mixed_workload() -> Workload:
    bursty = make_workload("bursty", 80, 3, seed=101, burst_gap=6.0)
    drift = make_workload("drift", 80, 3, seed=202, dt=0.6)
    uniform = make_workload("uniform", 40, 3, seed=303, rate=0.8)
    events = sorted(
        list(bursty) + list(drift) + list(uniform), key=lambda e: e.time
    )
    return Workload(events=events, kind="mixed", seed=1)


def test_serving_amortization(results_dir):
    corpus = np.random.default_rng(9).uniform(0.0, 1.0, (N, 3))
    workload = _mixed_workload()

    service = KNNService(
        corpus, L, K, seed=SEED, window=WINDOW, max_batch=MAX_BATCH
    )
    start = time.perf_counter()
    answers = service.replay(workload)
    serve_wall = time.perf_counter() - start
    service.close()

    # Exactness first: a fast wrong service is worthless.
    wrong = sum(
        {int(i) for i in answers[qid].ids}
        != brute_force_knn_ids(
            service.session.dataset, event.query, L, service.session.metric
        )
        for qid, event in enumerate(workload)
    )
    assert wrong == 0

    served_rounds = service.session.rounds
    served_messages = service.session.metrics.messages
    report = service.stats_report()

    # Full baseline: 200 independent one-cluster-per-query calls.
    start = time.perf_counter()
    baseline_rounds = 0
    baseline_messages = 0
    for i, event in enumerate(workload):
        result = distributed_knn(corpus, event.query, L, K, seed=SEED + i)
        baseline_rounds += result.metrics.rounds
        baseline_messages += result.metrics.messages
    baseline_wall = time.perf_counter() - start

    round_win = baseline_rounds / served_rounds
    payload = {
        "config": {
            "k": K,
            "l": L,
            "n": N,
            "queries": QUERIES,
            "window": WINDOW,
            "max_batch": MAX_BATCH,
            "workload": "mixed(bursty=80, drift=80, uniform=40)",
        },
        "served": {
            "rounds": served_rounds,
            "messages": served_messages,
            "rounds_per_query": served_rounds / QUERIES,
            "wall_seconds": serve_wall,
            "throughput_queries_per_round": report[
                "throughput_queries_per_round"
            ],
            "latency_rounds_p50": report["latency_rounds_p50"],
            "latency_rounds_p99": report["latency_rounds_p99"],
            "protocol_latency_rounds_p50": report[
                "protocol_latency_rounds_p50"
            ],
            "protocol_latency_rounds_p99": report[
                "protocol_latency_rounds_p99"
            ],
            "cache_hit_rate": report["cache_hit_rate"],
            "warm_start_rate": report["warm_start_rate"],
            "mean_batch_size": report["mean_batch_size"],
            "batches": report["batches"],
            "fallbacks": report["fallbacks"],
        },
        "baseline": {
            "rounds": baseline_rounds,
            "messages": baseline_messages,
            "rounds_per_query": baseline_rounds / QUERIES,
            "wall_seconds": baseline_wall,
        },
        "round_cost_win": round_win,
        "message_win": baseline_messages / max(1, served_messages),
        "exact_answers": QUERIES - wrong,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[result saved to {RESULT_PATH}]")
    print(
        f"serve: {served_rounds} rounds for {QUERIES} queries "
        f"({served_rounds / QUERIES:.1f}/query), baseline "
        f"{baseline_rounds} ({baseline_rounds / QUERIES:.1f}/query) "
        f"-> win {round_win:.2f}x"
    )
    print(
        f"cache-hit {100 * report['cache_hit_rate']:.1f}%  "
        f"warm-start {100 * report['warm_start_rate']:.1f}%  "
        f"p50/p99 latency {report['latency_rounds_p50']:.0f}/"
        f"{report['latency_rounds_p99']:.0f} rounds"
    )

    # Acceptance bar: an absolute ceiling on served rounds per query,
    # the 5.45 (1090/200) measured before Algorithm 2's exact regime
    # made the one-shot baseline itself ~6x cheaper.  The ratio to that
    # moving baseline is printed and recorded above, not gated.
    assert served_rounds / QUERIES <= MAX_ROUNDS_PER_QUERY, (
        f"served {served_rounds / QUERIES:.2f} rounds/query > "
        f"{MAX_ROUNDS_PER_QUERY} (win {round_win:.2f}x)"
    )
    assert report["cache_hit_rate"] > 0.1
    assert report["warm_start_rate"] > 0.1
