#!/usr/bin/env python
"""Serve an ℓ-NN query stream from one resident cluster.

``distributed_knn`` pays for leader election, sharding and the full
Algorithm 2 protocol on every call.  ``KNNService`` pays the setup
once and then amortizes across the stream, in three tiers:

1. *micro-batching* — concurrent cold queries share protocol rounds
   (distinct ``bq/<qid>`` tags demultiplex the network, so answers
   are bit-identical to solo runs);
2. *exact cache* — a byte-identical repeat is answered in 0 rounds;
3. *warm starts* — a query near a previous one reuses that answer's
   boundary b: by the triangle inequality b + d(q, p) is a safe
   pruning radius, so the sampling phase is skipped entirely.

Every act verifies its answers against the brute-force oracle (the
script exits non-zero on any mismatch), and a final act drives the
same service through the asyncio facade.

Run:  python examples/online_service.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.sequential.brute import brute_force_knn_ids
from repro.serve import AsyncKNNService, KNNService

N, K, L, SEED = 4000, 4, 8, 7


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
    return f"{ok}/{len(queries)} exact"


def main() -> None:
    rng = np.random.default_rng(SEED)
    corpus = rng.uniform(0.0, 1.0, (N, 3))
    service = KNNService(
        corpus, L, K, seed=SEED, window=8.0, max_batch=16, election="min_id"
    )
    print(
        f"resident cluster up: k={K}, l={L}, corpus n={N} "
        f"(election + sharding paid once: "
        f"{service.session.setup_rounds} round(s))\n"
    )

    # ------------------------------------------------------------------
    print("=== act 1: 8 cold queries, micro-batched into shared rounds ===")
    cold = [rng.uniform(0.0, 1.0, 3) for _ in range(8)]
    before = service.session.rounds
    qids = [(service.submit(q, at=float(i)), q) for i, q in enumerate(cold)]
    answers = service.drain()
    batched_rounds = service.session.rounds - before
    print(f"  {check(service, answers, qids)}")
    print(
        f"  {batched_rounds} rounds for 8 queries "
        f"({batched_rounds / 8:.1f}/query — a solo cold run costs ~35)"
    )

    # ------------------------------------------------------------------
    print("\n=== act 2: a hot query repeats — the exact cache answers ===")
    hot = cold[0]
    before = service.session.rounds
    qid = service.submit(hot, at=100.0)
    answers = service.drain()
    print(f"  {check(service, answers, [(qid, hot)])}")
    print(
        f"  source={answers[qid].source}, "
        f"rounds spent: {service.session.rounds - before}"
    )

    # ------------------------------------------------------------------
    print("\n=== act 3: a drifting query warm-starts off its neighbor ===")
    drifted = [cold[2] + 0.004 * (i + 1) for i in range(4)]
    before = service.session.rounds
    qids = []
    for i, q in enumerate(drifted):
        qids.append((service.submit(q, at=200.0 + i), q))
        service.flush()  # serve one at a time so each can donate its boundary
    answers = service.drain()
    print(f"  {check(service, answers, qids)}")
    sources = [answers[qid].source for qid, _ in qids]
    print(f"  sources: {sources}")
    print(
        f"  {service.session.rounds - before} rounds for 4 queries "
        f"(warm starts skip the sampling phase)"
    )

    print("\n=== service totals ===")
    print(service.summary())
    service.close()

    # ------------------------------------------------------------------
    print("\n=== act 4: the same stream through asyncio ===")

    async def run_async() -> None:
        svc = AsyncKNNService(
            KNNService(corpus, L, K, seed=SEED, window=2.0, max_batch=8)
        )
        queries = [rng.uniform(0.0, 1.0, 3) for _ in range(6)]
        results = await asyncio.gather(*(svc.query(q) for q in queries))
        ok = sum(
            {int(i) for i in ans.ids}
            == brute_force_knn_ids(
                svc.service.session.dataset, q, L, svc.service.session.metric
            )
            for ans, q in zip(results, queries)
        )
        print(
            f"  {ok}/6 exact, coalesced into "
            f"{svc.service.session.batches} batch(es)"
        )
        if ok < len(queries):
            raise SystemExit(f"only {ok}/{len(queries)} answers match brute force")
        await svc.close()

    asyncio.run(run_async())


if __name__ == "__main__":
    main()
