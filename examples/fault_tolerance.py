#!/usr/bin/env python
"""Watch the fault layer break a protocol — and the recovery stack fix it.

Three acts, all on the same ℓ-NN instance:

1. a lossy network (10% drops) silently starves an *unprotected* run;
2. the reliable layer (ACK/retransmit/checksum) restores exactness on
   the same lossy network, and the metrics show what it cost;
3. the leader machine crash-stops mid-protocol and the supervised
   driver re-elects, re-shards over the survivors and still returns
   the exact answer, with the recovery trail on the result.

Run:  python examples/fault_tolerance.py
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import distributed_knn
from repro.kmachine import (
    Crash,
    FaultPlan,
    KMachineError,
    ReliabilityConfig,
)
from repro.points.dataset import make_dataset
from repro.sequential.brute import brute_force_knn_ids

N, K, L, SEED = 300, 4, 8, 7


def report_exact(res, exact: set[int]) -> None:
    """Print the exactness check and exit non-zero if it fails."""
    ok = set(res.ids.tolist()) == exact
    print(f"  exact answer: {ok}")
    if not ok:
        raise SystemExit("the answer differs from brute force")


def main() -> None:
    rng = np.random.default_rng(SEED)
    dataset = make_dataset(rng.uniform(0.0, 1.0, (N, 3)), rng=rng)
    query = rng.uniform(0.0, 1.0, 3)
    exact = brute_force_knn_ids(dataset, query, L)
    print(f"{N} points on {K} machines, exact {L}-NN ids: {sorted(exact)}\n")

    # ------------------------------------------------------------------
    print("=== act 1: 10% message drops, no protection ===")
    lossy = FaultPlan(seed=SEED, drop=0.10)
    try:
        distributed_knn(
            dataset, query, l=L, k=K, seed=SEED,
            faults=lossy, max_attempts=1, attempt_max_rounds=400,
        )
        print("  (this seed got lucky — every critical message survived)")
    except KMachineError as err:
        print(f"  protocol failed as expected:\n    {type(err).__name__}: {err}")

    # ------------------------------------------------------------------
    print("\n=== act 2: same lossy network, reliable layer on ===")
    reliable = ReliabilityConfig(ack_timeout_rounds=12, max_retries=12)
    res = distributed_knn(
        dataset, query, l=L, k=K, seed=SEED, faults=lossy, reliable=reliable
    )
    report_exact(res, exact)
    print(f"  {res.metrics.summary()}")

    # ------------------------------------------------------------------
    print("\n=== act 3: drops + leader crash at round 6, supervised ===")
    hostile = FaultPlan(seed=SEED, drop=0.10, crashes=(Crash(rank=0, round=6),))
    res = distributed_knn(
        dataset, query, l=L, k=K, seed=SEED, faults=hostile, reliable=reliable
    )
    rec = res.recovery
    report_exact(res, exact)
    print(f"  attempts: {rec.attempts}, crashed machines: {rec.crashed}, "
          f"degraded: {rec.degraded}")
    for line in rec.errors:
        print(f"    {line}")
    print(f"  {res.metrics.summary()}")


if __name__ == "__main__":
    main()
