"""CLUSTER — coreset quality, locality sharding, and approximate serving.

Three claims from the clustering-subsystem issue, measured on seeded
clustered data (the regime the subsystem targets):

1. **Coreset size buys accuracy.**  Sweeping the per-merge coreset
   budget, the distributed k-median cost's relative error against the
   pooled sequential baseline shrinks, and every run satisfies its
   certificate (``cost ≤ 5·seq + 6·movement``).
2. **Locality sharding makes warm starts bite.**  Warm-start
   *frequency* is a property of the traffic, not the placement — but a
   warm threshold only saves traffic when non-owning machines can
   prune their whole shard.  We count a warm *hit* when a warm-started
   query ships ≤ 25% of the unpruned bill — every worker sending its
   count, its ℓ keys and receiving the verdict — a yardstick fixed by
   ``(k, ℓ)``, so a cheaper cold protocol cannot move it: locality
   placement must beat id-space placement on the cluster-drift workload.
3. **Approximate serving trades fan-out for recall.**  Routing each
   query to its ``c`` best machines by the triangle-inequality lower
   bound, recall climbs with fan-out and reaches ≥ 0.9 at the default
   fan-out 2, at a fraction of the exact path's per-query messages.

Results land in ``benchmarks/results/BENCH_cluster.json`` and feed the
``cluster.*`` tolerances in the perf-regression gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cluster.driver import distributed_cluster
from repro.points.generators import gaussian_blobs
from repro.sequential.brute import brute_force_knn_ids
from repro.serve import ClusterSession, KNNService, QueryJob, make_workload

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_cluster.json"

K = 4
L = 8
N = 3000
SEED = 7
CORESET_SIZES = (8, 16, 32, 64)
FANOUTS = (1, 2, 3)
#: a warm-started query "hits" when the threshold pruned most shipping
WARM_HIT_FRACTION = 0.25
#: messages of a query nothing prunes: per worker a count, ℓ keys, a verdict
UNPRUNED_MESSAGES = (K - 1) * (L + 2)


def _corpus():
    return gaussian_blobs(
        np.random.default_rng(9), N, 3, n_classes=4, spread=0.04
    )


def _coreset_sweep() -> dict:
    ds = _corpus()
    rows = []
    for size in CORESET_SIZES:
        result = distributed_cluster(ds, K, k=6, size=size, seed=SEED)
        rows.append(
            {
                "size": size,
                "relative_error": result.relative_error,
                "movement": result.movement,
                "certificate_ok": bool(result.ok),
            }
        )
    return {
        "rows": rows,
        "all_certified": all(r["certificate_ok"] for r in rows),
        "error_small_to_large": [r["relative_error"] for r in rows],
    }


def _warm_hit_rate(partitioner: str, workload) -> dict:
    service = KNNService(
        _corpus(), L, K, seed=SEED, partitioner=partitioner,
        window=8.0, max_batch=16,
    )
    answers = service.replay(workload)
    service.close()
    warm = [a.record.messages for a in answers.values() if a.source == "warm"]
    cold = [a.record.messages for a in answers.values() if a.source == "cold"]
    cold_mean = float(np.mean(cold)) if cold else 0.0
    hits = (
        sum(1 for m in warm if m <= WARM_HIT_FRACTION * UNPRUNED_MESSAGES) / len(warm)
        if warm
        else 0.0
    )
    return {
        "warm_start_rate": service.stats.warm_start_rate,
        "warm_hit_rate": hits,
        "mean_warm_messages": float(np.mean(warm)) if warm else 0.0,
        "mean_cold_messages": cold_mean,
        "total_messages": service.session.metrics.messages,
    }


def _approx_table() -> dict:
    ds = _corpus()
    session = ClusterSession(ds, L, K, seed=SEED, partitioner="locality")
    session.cluster_corpus()
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(ds), 60)
    queries = ds.points[idx] + rng.normal(0, 0.01, (60, 3))
    truths = [
        brute_force_knn_ids(session.dataset, q, L, session.metric)
        for q in queries
    ]
    rows = []
    for fanout in FANOUTS:
        before_msgs = session.metrics.messages
        before_rounds = session.rounds
        answers = session.run_approx_batch(
            [QueryJob(qid=i, query=q) for i, q in enumerate(queries)],
            fanout=fanout,
        )
        recalls = [
            len(truth & {int(i) for i in a.ids}) / L
            for a, truth in zip(answers, truths)
        ]
        rows.append(
            {
                "fanout": fanout,
                "recall": float(np.mean(recalls)),
                "certified_rate": sum(a.certified for a in answers)
                / len(answers),
                "messages_per_query": (session.metrics.messages - before_msgs)
                / len(queries),
                "rounds": session.rounds - before_rounds,
            }
        )
    # Exact-path reference bill for the same batch size.
    before_msgs = session.metrics.messages
    exact = session.run_batch(
        [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
    )
    exact_mpq = (session.metrics.messages - before_msgs) / len(queries)
    assert all(a.certified is None for a in exact)
    session.close()
    return {"rows": rows, "exact_messages_per_query": exact_mpq}


def test_clustering_subsystem(results_dir):
    coreset = _coreset_sweep()
    workload = make_workload("cluster-drift", 120, 3, seed=11)
    locality = _warm_hit_rate("locality", workload)
    id_space = _warm_hit_rate("random", workload)
    warm_hit_delta = locality["warm_hit_rate"] - id_space["warm_hit_rate"]
    approx = _approx_table()

    recall_by_fanout = {r["fanout"]: r["recall"] for r in approx["rows"]}
    payload = {
        "config": {
            "k": K,
            "l": L,
            "n": N,
            "coreset_sizes": list(CORESET_SIZES),
            "fanouts": list(FANOUTS),
            "workload": "cluster-drift(120)",
            "warm_hit_fraction": WARM_HIT_FRACTION,
            "unpruned_messages": UNPRUNED_MESSAGES,
        },
        "coreset": coreset,
        "locality_sharding": {
            "locality": locality,
            "id_space": id_space,
            "warm_hit_delta": warm_hit_delta,
        },
        "approx": approx,
        "recall_at_default_fanout": recall_by_fanout[2],
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[result saved to {RESULT_PATH}]")
    print(
        "coreset error by size: "
        + ", ".join(
            f"{r['size']}→{r['relative_error']:.3f}" for r in coreset["rows"]
        )
    )
    print(
        f"warm hit rate: locality {locality['warm_hit_rate']:.2f} vs "
        f"id-space {id_space['warm_hit_rate']:.2f} "
        f"(delta {warm_hit_delta:+.2f})"
    )
    for row in approx["rows"]:
        print(
            f"fanout {row['fanout']}: recall {row['recall']:.3f}  "
            f"certified {row['certified_rate']:.2f}  "
            f"msgs/query {row['messages_per_query']:.1f} "
            f"(exact path {approx['exact_messages_per_query']:.1f})"
        )

    # The issue's acceptance bars.
    assert coreset["all_certified"]
    assert warm_hit_delta > 0.0, "locality sharding must beat id-space"
    assert recall_by_fanout[2] >= 0.9, "recall at default fan-out"
    # Approximation must actually be cheaper than the exact protocol.
    mpq2 = next(r for r in approx["rows"] if r["fanout"] == 2)
    assert mpq2["messages_per_query"] < approx["exact_messages_per_query"]
