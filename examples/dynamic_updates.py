#!/usr/bin/env python
"""Live inserts, deletes and a selection-driven rebalance, end to end.

The k-machine model assumes each machine holds O(n/k) points.  A
static sharding satisfies that on day one; a live corpus does not —
inserts and deletes drift the shard sizes until one machine carries
far more than its share and the round bounds quietly stop applying.

The dynamic-data layer keeps the model honest in three moves:

1. *batched updates* — an O(k)-message episode routes new points to
   the least-loaded machines and deletes by id, bumping the data
   epoch so every cache entry from the old point set is fenced off;
2. *imbalance monitoring* — the leader watches ``max_i n_i / (n/k)``
   from O(k) load reports after every mutation;
3. *selection-driven rebalancing* — when the ratio trips the bound,
   k−1 runs of Algorithm 1 pick id-space splitters and an all-to-all
   of ``PointBatch`` envelopes migrates points until shard sizes
   differ by at most one.  Placement only: the epoch does not move.

Every act verifies its answers against the brute-force oracle on the
*live* point set, and the script exits non-zero on any mismatch.

Run:  python examples/dynamic_updates.py
"""

from __future__ import annotations

import numpy as np

from repro.sequential.brute import brute_force_knn_ids
from repro.serve import KNNService

N, K, L, SEED = 3000, 4, 8, 7


def check(service: KNNService, answers, queries) -> str:
    ok = sum(
        {int(i) for i in answers[qid].ids}
        == brute_force_knn_ids(
            service.session.dataset, q, L, service.session.metric
        )
        for qid, q in queries
    )
    if ok < len(queries):
        raise SystemExit(f"only {ok}/{len(queries)} answers match brute force")
    return f"{ok}/{len(queries)} exact on the live point set"


def loads_line(service: KNNService) -> str:
    session = service.session
    return (
        f"loads={session.loads}  "
        f"ratio={session.imbalance_ratio:.2f}  "
        f"epoch={session.data_epoch}"
    )


def main() -> None:
    rng = np.random.default_rng(SEED)
    corpus = rng.uniform(0.0, 1.0, (N, 3))

    # A skewed start: one machine begins way over its O(n/k) share.
    # The session notices at construction and rebalances before the
    # first query can run against an unbalanced cluster.
    service = KNNService(
        corpus,
        L,
        K,
        seed=SEED,
        window=4.0,
        max_batch=8,
        partitioner="skewed",
        balance_threshold=1.5,
    )
    session = service.session
    print(f"cluster up: k={K}, l={L}, n={N} (skewed partition)")
    print(f"  after constructor auto-rebalance: {loads_line(service)}\n")

    # ------------------------------------------------------------------
    print("=== act 1: insert a batch — one O(k) episode, epoch bumps ===")
    batch = rng.uniform(0.0, 1.0, (48, 3))
    new_ids = service.insert(batch)
    record = session.mutations[-1]
    print(
        f"  {len(new_ids)} points routed to the least-loaded machines in "
        f"{record.messages} messages ({record.insert_targets} targets)"
    )
    print(f"  {loads_line(service)}")
    queries = [(batch[0], "a point just inserted"), (rng.uniform(0, 1, 3), "")]
    qids = [(service.submit(q, at=float(i)), q) for i, (q, _) in enumerate(queries)]
    answers = service.drain()
    print(f"  {check(service, answers, qids)}")
    assert int(new_ids[0]) in {int(i) for i in answers[qids[0][0]].ids}
    print("  the freshly inserted point is its own nearest neighbor\n")

    # ------------------------------------------------------------------
    print("=== act 2: delete those points — caches fenced by epoch ===")
    hot = rng.uniform(0.0, 1.0, 3)
    qid = service.submit(hot, at=50.0)
    service.drain()
    removed = service.delete(new_ids)
    print(f"  {removed} points deleted, {loads_line(service)}")
    qid2 = service.submit(hot, at=60.0)  # byte-identical repeat
    answers = service.drain()
    print(
        f"  repeat of a pre-delete query is served from "
        f"source={answers[qid2].source!r} — the cache advanced to epoch "
        f"{service.cache.epoch}, so the pre-delete entry was invalidated"
    )
    assert answers[qid2].source == "cold"
    print(f"  {check(service, answers, [(qid2, hot)])}\n")

    # ------------------------------------------------------------------
    print("=== act 3: lopsided deletes trip the monitor mid-stream ===")
    # Rebalanced shards hold contiguous id ranges, so deleting the
    # lowest ids starves machines 0 and 1 while 2 and 3 stay full.
    victim_ids = np.sort(session.dataset.ids)[: int(1.8 * session.loads[0])]
    before = len(session.mutations)
    service.delete(victim_ids)
    auto = [m for m in session.mutations[before:] if m.kind == "rebalance"]
    print(f"  deleted {len(victim_ids)} points from the low id range")
    assert auto, "the imbalance monitor should have tripped"
    move = auto[-1]
    print(
        f"  monitor tripped: rebalance ran {move.splitters_run} "
        f"selection(s), moved {move.moved_points} points in "
        f"{move.messages} messages"
    )
    print(f"  {loads_line(service)}")
    fresh = [rng.uniform(0.0, 1.0, 3) for _ in range(4)]
    qids = [(service.submit(q, at=100.0 + i), q) for i, q in enumerate(fresh)]
    answers = service.drain()
    print(f"  {check(service, answers, qids)}\n")

    print("=== service totals ===")
    print(service.summary())
    service.close()


if __name__ == "__main__":
    main()
