"""The "simple method" baseline the paper compares against (§3).

Each machine finds its local ℓ-nearest points to the query and ships
*all of them* to the leader — ``kℓ`` (id, distance) pairs in total —
and the leader selects the final ℓ among them.  This is the algorithm
"used in practice" (it is essentially how Spark/MLlib-style systems
answer distributed KNN queries) and it is correct, but under the
k-machine bandwidth constraint each machine's ℓ pairs share one link
to the leader, so the transfer costs ``Θ(ℓ)`` rounds — exponentially
worse than Algorithm 2's ``O(log ℓ)``.

The leader's merge is also the wall-clock bottleneck at scale: it
sorts/selects over ``kℓ`` keys while Algorithm 2's leader only ever
touches ``O(k log ℓ)`` samples; that asymmetry is what Figure 2's
speedup ratio measures.

Output format matches :class:`repro.core.knn.KNNOutput` so drivers,
experiments and the classifier can swap protocols freely.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..kmachine.machine import MachineContext, Program
from ..points.dataset import Shard
from ..points.ids import MINUS_INF_KEY, Keyed
from ..points.metrics import Metric, get_metric
from .knn import KNNOutput, knn_output, local_candidates, ship_and_cut
from .leader import elect
from .selection import _rank_leq

__all__ = ["SimpleKNNProgram", "simple_knn_subroutine"]


def simple_knn_subroutine(
    ctx: MachineContext,
    leader: int,
    shard: Shard,
    query: np.ndarray,
    l: int,
    metric: Metric,
    prefix: str = "simple",
) -> Generator[None, None, KNNOutput]:
    """Run the simple method as an embeddable subroutine.

    Every machine sends exactly ``min(ℓ, |D_i|)`` candidate messages
    plus one terminating count message, so the leader's gather is
    exact without assuming balanced shards.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    query = np.atleast_1d(np.asarray(query, dtype=np.float64))
    with ctx.obs.span("local-prune"):
        candidates, rows = local_candidates(shard, query, l, metric)
    if ctx.k == 1:
        boundary = (
            Keyed(candidates[l - 1]["value"], candidates[l - 1]["id"])
            if len(candidates) >= l
            else (
                Keyed(candidates[-1]["value"], candidates[-1]["id"])
                if len(candidates)
                else MINUS_INF_KEY
            )
        )
        head = candidates[: min(l, len(candidates))]
        return knn_output(
            shard, candidates, rows, head, boundary, True, survivors=len(candidates)
        )

    # Ship every candidate (no bound): the l pairs on each link cost the
    # paper's Θ(l) rounds, and the leader merges all k*l keys.
    boundary, survivors = yield from ship_and_cut(ctx, leader, candidates, l, prefix=prefix)
    local = candidates[: _rank_leq(candidates, boundary)]
    return knn_output(
        shard, candidates, rows, local, boundary, ctx.rank == leader, survivors=survivors
    )


class SimpleKNNProgram(Program):
    """Standalone SPMD wrapper for the simple method.

    Same construction interface as :class:`repro.core.knn.KNNProgram`
    (minus the sampling knobs), so experiments swap the two protocols
    by changing one class name.
    """

    name = "simple-knn"

    def __init__(
        self,
        query: np.ndarray | float,
        l: int,
        metric: Metric | str = "euclidean",
        election: str = "fixed",
    ) -> None:
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        self.query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        self.l = l
        self.metric = get_metric(metric)
        self.election = election

    def run(self, ctx: MachineContext) -> Generator[None, None, KNNOutput]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election)
        shard: Shard = ctx.local
        if shard is None:
            shard = Shard(points=np.empty((0, len(self.query))), ids=np.empty(0, np.int64))
        output = yield from simple_knn_subroutine(
            ctx, leader, shard, self.query, self.l, self.metric
        )
        return output
