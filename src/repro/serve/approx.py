"""Approximate serving mode: route queries to center-owning machines.

The exact protocols ask *every* machine about every query — correct by
construction, but ``Θ(k)`` messages per query even when the answer
lives entirely on one machine.  After the clustering subsystem
(:mod:`repro.cluster`) has summarised the corpus into ``c`` centers,
the session can instead consult a :class:`RoutingTable`: for each
machine it knows which clusters the machine hosts (``counts``) and how
far the machine's points stray from each center (``radii``), so a
triangle-inequality **lower bound** on the machine's nearest point is
available *before* any message is sent.  A query is routed to the
``fanout`` machines with the smallest lower bounds; only they answer.

Two kinds of guarantee:

* **Recall** is empirical — ``benchmarks/bench_cluster.py`` measures it
  against the exact path (≥ 0.9 at the default fanout on clustered
  traffic).
* **Certification** is exact and per-query: if the ℓ-th answer
  distance is no larger than every *unrouted* live machine's lower
  bound, no skipped machine can hold a closer point and the
  approximate answer is provably the exact answer
  (:meth:`RoutingTable.certify`).  The session surfaces this as
  :attr:`repro.serve.session.SessionAnswer.certified`.

The protocol itself (:class:`ApproxServeProgram`) is two rounds per
batch regardless of ℓ, k or batch size: routed machines push their
local top-ℓ candidates straight to the leader (one
:class:`~repro.kmachine.schema.PointBatch` each, tag
``bq/<qid>/ap`` so per-query attribution keeps working), and the
leader merges.  Per query that is at most ``fanout`` messages —
*constant* in k, the payoff the routing table buys.

Lower bounds require the metric to satisfy the triangle inequality;
all built-in Minkowski metrics do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from ..cluster.driver import local_assign_stats
from ..core.messages import tag
from ..kmachine.machine import MachineContext, Program
from ..kmachine.schema import PointBatch
from ..points.metrics import Metric, get_metric

__all__ = ["ApproxAnswer", "ApproxServeProgram", "RoutingTable", "routing_from_shards"]


@dataclass
class RoutingTable:
    """Control-plane summary of where each cluster's points live.

    ``counts[r, c]`` is how many points of cluster ``c`` machine ``r``
    holds; ``radii[r, c]`` is the farthest such point's distance to
    ``centers[c]`` (0 when the machine holds none).  Built from a
    :class:`~repro.cluster.driver.ClusteringProgram` episode's leader
    output (:meth:`from_clustering`) or directly from the session's
    shard mirror (:func:`routing_from_shards`).
    """

    centers: np.ndarray  # (c, d) float64
    counts: np.ndarray  # (k, c) int64
    radii: np.ndarray  # (k, c) float64
    metric: Metric

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim == 1:
            self.centers = self.centers.reshape(-1, 1)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.radii = np.asarray(self.radii, dtype=np.float64)
        self.metric = get_metric(self.metric)
        if self.counts.shape != self.radii.shape:
            raise ValueError(
                f"counts {self.counts.shape} vs radii {self.radii.shape}"
            )
        if self.counts.shape[1] != len(self.centers):
            raise ValueError(
                f"{self.counts.shape[1]} count columns for "
                f"{len(self.centers)} centers"
            )

    @property
    def k(self) -> int:
        """Number of machines the table covers."""
        return self.counts.shape[0]

    @property
    def n_centers(self) -> int:
        """Number of cluster centers."""
        return len(self.centers)

    @property
    def owner_of_center(self) -> np.ndarray:
        """``(c,)`` — the machine holding the plurality of each cluster.

        This is the migration target map
        :class:`repro.dyn.balance.LocalityRebalanceProgram` consumes.
        """
        return np.argmax(self.counts, axis=0).astype(np.int64)

    @classmethod
    def from_clustering(cls, output, metric: "Metric | str") -> "RoutingTable":
        """Build from a leader-side :class:`~repro.cluster.driver.ClusteringOutput`."""
        if output.counts is None or output.radii is None:
            raise ValueError("clustering output carries no assignment matrices")
        return cls(
            centers=output.centers,
            counts=output.counts,
            radii=output.radii,
            metric=metric,
        )

    def lower_bounds(self, queries: np.ndarray) -> np.ndarray:
        """``(k,)`` per-machine lower bounds on the nearest point to one
        query ``(d,)``; ``(m, k)`` for a block of queries ``(m, d)``.

        For any point ``p`` of cluster ``c`` on machine ``r``,
        ``d(q, p) >= d(q, center_c) - radii[r, c]`` by the triangle
        inequality; minimising over the clusters machine ``r`` actually
        hosts gives a sound bound.  Machines hosting nothing get
        ``inf`` — they can never beat any candidate.  A block costs one
        kernel call, and its rows equal the single-query bounds bit
        for bit.
        """
        queries = np.atleast_1d(np.asarray(queries, dtype=np.float64))
        d_centers = self.metric.distances(self.centers, queries)  # (c,) or (m, c)
        per_cluster = np.maximum(0.0, d_centers[..., None, :] - self.radii)  # (..., k, c)
        per_cluster = np.where(self.counts > 0, per_cluster, np.inf)
        return np.min(per_cluster, axis=-1)

    def route(self, bounds: np.ndarray, fanout: int) -> np.ndarray:
        """The ``fanout`` machines with the smallest of one query's
        :meth:`lower_bounds`.

        Ties break toward lower ranks (stable sort), so routing is
        deterministic.  Machines holding no points are never routed to.
        """
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        order = np.argsort(bounds, kind="stable")
        populated = order[np.isfinite(bounds[order])]
        return populated[:fanout].astype(np.int64)

    def certify(
        self,
        bounds: np.ndarray,
        routed: Sequence[int],
        worst_distance: float,
        *,
        live: "Sequence[int] | None" = None,
    ) -> bool:
        """Is the routed answer provably exact?

        True iff every live machine *not* consulted has a lower bound
        (one query's :meth:`lower_bounds`) at least ``worst_distance``
        (the routed answer's ℓ-th distance) — then no skipped machine
        can contribute a closer point, so the approximate answer
        equals the exact one.
        """
        routed_set = set(int(r) for r in routed)
        ranks = range(self.k) if live is None else live
        return all(
            bounds[r] >= worst_distance
            for r in ranks
            if int(r) not in routed_set
        )


def routing_from_shards(
    shards: Sequence, centers: np.ndarray, metric: "Metric | str"
) -> RoutingTable:
    """Recompute a routing table from shard truth (control-plane side).

    The session uses this to refresh ``counts``/``radii`` after a
    migration moved points between machines without re-running a
    clustering episode — the shard mirror is ground truth, so this
    costs zero protocol messages (same trust level as ``session.loads``).
    """
    metric = get_metric(metric)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim == 1:
        centers = centers.reshape(-1, 1)
    stats = [
        local_assign_stats(getattr(shard, "points", shard), centers, metric)
        for shard in shards
    ]
    shape = (len(shards), len(centers))
    counts = np.array([s.counts for s in stats], dtype=np.int64).reshape(shape)
    radii = np.array([s.radii for s in stats], dtype=np.float64).reshape(shape)
    return RoutingTable(centers=centers, counts=counts, radii=radii, metric=metric)


@dataclass
class ApproxAnswer:
    """Leader-side merged candidates for one routed query."""

    ids: np.ndarray
    distances: np.ndarray
    labels: np.ndarray | None
    complete_round: int


class ApproxServeProgram(Program):
    """One approximate micro-batch: routed top-ℓ push, leader merge.

    ``targets[i]`` lists the machines consulted for ``jobs[i]`` (from
    :meth:`RoutingTable.route`).  Every routed machine selects its
    local top-ℓ for the query and — unless it *is* the leader — sends
    it to the leader as one :class:`~repro.kmachine.schema.PointBatch`
    under ``bq/<qid>/ap``.  The leader merges candidate sets
    (recomputing distances from the shipped coordinates, so a stale or
    corrupt distance can never leak into an answer) and returns one
    :class:`ApproxAnswer` per job; all other machines return ``None``.

    Two protocol rounds per batch: one send round, one merge round.
    Unrouted machines idle through both (``yield`` keeps them
    round-aligned).
    """

    name = "serve-approx"

    def __init__(
        self,
        jobs: Sequence,
        targets: Sequence[Sequence[int]],
        l: int,
        metric: Metric,
        leader: int,
        *,
        batch_index: int = 0,
    ) -> None:
        if not jobs:
            raise ValueError("batch must contain at least one job")
        if len(targets) != len(jobs):
            raise ValueError(f"{len(targets)} target lists for {len(jobs)} jobs")
        self.jobs = list(jobs)
        self.targets = [tuple(int(r) for r in t) for t in targets]
        self.l = l
        self.metric = metric
        self.leader = leader
        self.batch_index = batch_index

    def _local_top(self, shard, query: np.ndarray) -> PointBatch:
        """This machine's ℓ best candidates for ``query`` as an envelope."""
        coords = np.asarray(getattr(shard, "points", shard), dtype=np.float64)
        if len(coords) == 0:
            return PointBatch.empty(len(query))
        dist = self.metric.distances(coords, query)
        keep = np.argsort(dist, kind="stable")[: self.l]
        labels = getattr(shard, "labels", None)
        return PointBatch(
            ids=np.asarray(shard.ids)[keep].astype(np.int64),
            coords=coords[keep],
            labels=None if labels is None else np.asarray(labels)[keep],
        )

    def run(
        self, ctx: MachineContext
    ) -> Generator[None, None, "list[ApproxAnswer] | None"]:
        """Push local candidates (round 0), merge at the leader (round 1)."""
        is_leader = ctx.rank == self.leader
        local: dict[int, PointBatch] = {}
        with ctx.obs.span(tag("serve", "approx", self.batch_index)):
            for i, job in enumerate(self.jobs):
                if ctx.rank not in self.targets[i]:
                    continue
                batch = self._local_top(ctx.local, job.query)
                if is_leader:
                    local[i] = batch
                else:
                    ctx.send(self.leader, tag("bq", job.qid, "ap"), batch)
            yield
            if not is_leader:
                # Routed workers are done after their push; idle one
                # round so every machine leaves the episode together.
                return None
            answers: list[ApproxAnswer] = []
            for i, job in enumerate(self.jobs):
                parts = [local[i]] if i in local else []
                senders = [r for r in self.targets[i] if r != self.leader]
                if senders:
                    msgs = yield from ctx.recv(tag("bq", job.qid, "ap"), len(senders))
                    parts.extend(m.payload for m in msgs)
                answers.append(self._merge(job.query, parts, ctx.round))
            return answers

    def _merge(
        self, query: np.ndarray, parts: "list[PointBatch]", finished: int
    ) -> ApproxAnswer:
        """Global top-ℓ over the shipped candidates (value, id) order."""
        ids = np.concatenate([p.ids for p in parts]) if parts else np.empty(0, np.int64)
        coords = (
            np.concatenate([p.coords for p in parts])
            if parts
            else np.empty((0, len(query)), np.float64)
        )
        label_parts = [p.labels for p in parts if p.labels is not None]
        labels = (
            np.concatenate(label_parts) if len(label_parts) == len(parts) and parts
            else None
        )
        dist = (
            self.metric.distances(coords, query)
            if len(coords)
            else np.empty(0, np.float64)
        )
        table = np.empty(len(ids), dtype=[("value", "f8"), ("id", "i8")])
        table["value"] = dist
        table["id"] = ids
        order = np.argsort(table, order=("value", "id"))[: self.l]
        return ApproxAnswer(
            ids=ids[order].copy(),
            distances=dist[order].copy(),
            labels=None if labels is None else labels[order].copy(),
            complete_round=finished,
        )
