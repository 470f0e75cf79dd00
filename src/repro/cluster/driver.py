"""End-to-end distributed clustering episodes and their certificates.

One :class:`ClusteringProgram` episode is three phases:

1. **coreset** — the binomial merge-and-compress of
   :mod:`repro.cluster.coreset` leaves the leader holding one weighted
   summary of the whole dataset (``k − 1`` messages, ⌈log₂k⌉ rounds);
2. **solve + broadcast** — the leader runs the requested weighted
   solver (:func:`~repro.cluster.solvers.greedy_kcenter` or
   :func:`~repro.cluster.solvers.local_search_kmedian`) on the coreset
   and broadcasts the resulting
   :class:`~repro.kmachine.schema.CenterSet` (``k − 1`` messages, one
   round);
3. **assign** — every machine scores the broadcast centers against its
   *raw* shard and the workers gather
   :class:`~repro.kmachine.schema.AssignStats` back to the leader
   (``k − 1`` messages).  Because the stats carry exact local sums and
   maxima, the leader ends the episode knowing the **exact** global
   cost of the centers it chose — the approximation only ever lives in
   *which* centers were chosen, never in how they are evaluated.

Total: ``3(k − 1)`` messages (declared conformance class ``k log``,
numeric budget :func:`repro.obs.conformance.clustering_message_budget`).

**Certificates.**  The coreset measures its own damage (``movement``,
``radius`` — see :mod:`repro.cluster.coreset`), so the standard
coreset/solver composition bounds become *checkable inequalities* in
measured quantities, with the sequential solver on the raw points as
the reference:

* k-median: local-search is a 5-approximation at a swap-local optimum
  and moving weight ``w`` by ``d`` changes any solution's cost by at
  most ``w·d``, so ``cost ≤ 5·seq_cost + 6·movement``;
* k-center: greedy is a 2-approximation and every point sits within
  ``radius`` of its surviving representative, so
  ``cost ≤ 2·seq_cost + 3·radius``.

:func:`distributed_cluster` runs one episode on a fresh simulator,
evaluates the sequential baseline, and returns a
:class:`ClusteringResult` whose :attr:`~ClusteringResult.ok` is the
certificate check the tests (and the property suite) assert.
"""

from __future__ import annotations

import dataclasses
from typing import Generator

import numpy as np

from ..core.messages import tag
from ..kmachine.machine import MachineContext, Program
from ..kmachine.schema import AssignStats, CenterSet, Coreset
from ..kmachine.simulator import Simulator
from ..points.dataset import Dataset, make_dataset
from ..points.metrics import Metric
from ..points.partition import shard_dataset
from .coreset import DEFAULT_CORESET_SIZE, coreset_subroutine
from .solvers import (
    center_distances,
    greedy_kcenter,
    kcenter_cost,
    kmedian_cost,
    local_search_kmedian,
)

__all__ = [
    "OBJECTIVES",
    "ClusteringOutput",
    "ClusteringProgram",
    "ClusteringResult",
    "certificate_bound",
    "distributed_cluster",
    "local_assign_stats",
    "sequential_baseline",
    "solve_weighted",
]

#: Supported clustering objectives.
OBJECTIVES = ("kmedian", "kcenter")


def solve_weighted(
    points: np.ndarray,
    weights: np.ndarray | None,
    n_centers: int,
    objective: str = "kmedian",
    metric: "Metric | str" = "euclidean",
) -> tuple[np.ndarray, float]:
    """Run the requested weighted solver; returns ``(centers, cost)``.

    ``cost`` is the objective value *on the given (weighted) points* —
    for the distributed pipeline that is the coreset, so callers must
    re-measure on raw data before quoting a real cost.
    """
    if objective == "kmedian":
        idx, cost = local_search_kmedian(
            points, n_centers, weights=weights, metric=metric
        )
    elif objective == "kcenter":
        idx, cost = greedy_kcenter(
            points, n_centers, weights=weights, metric=metric
        )
    else:
        raise ValueError(f"unknown objective {objective!r}; want {OBJECTIVES}")
    return np.asarray(points, dtype=np.float64)[idx], float(cost)


def sequential_baseline(
    points: np.ndarray,
    n_centers: int,
    objective: str = "kmedian",
    metric: "Metric | str" = "euclidean",
) -> tuple[np.ndarray, float]:
    """The same solver on the raw, unweighted points (the reference)."""
    points = np.asarray(points, dtype=np.float64)
    centers, _ = solve_weighted(points, None, n_centers, objective, metric)
    if objective == "kcenter":
        return centers, kcenter_cost(points, centers, metric=metric)
    return centers, kmedian_cost(points, centers, metric=metric)


def certificate_bound(
    objective: str, seq_cost: float, movement: float, radius: float
) -> float:
    """The measured-quantity upper bound the distributed cost must obey."""
    if objective == "kmedian":
        return 5.0 * seq_cost + 6.0 * movement
    if objective == "kcenter":
        return 2.0 * seq_cost + 3.0 * radius
    raise ValueError(f"unknown objective {objective!r}; want {OBJECTIVES}")


def local_assign_stats(
    coords: np.ndarray,
    centers: np.ndarray,
    metric: "Metric | str" = "euclidean",
) -> AssignStats:
    """Score broadcast centers against one machine's raw points."""
    c = len(centers)
    if len(coords) == 0:
        return AssignStats(
            counts=np.zeros(c, dtype=np.int64),
            radii=np.zeros(c, dtype=np.float64),
            cost=0.0,
        )
    dists = center_distances(coords, centers, metric)
    owner = np.argmin(dists, axis=1)
    nearest = dists[np.arange(len(coords)), owner]
    counts = np.bincount(owner, minlength=c).astype(np.int64)
    radii = np.zeros(c, dtype=np.float64)
    np.maximum.at(radii, owner, nearest)
    return AssignStats(counts=counts, radii=radii, cost=float(nearest.sum()))


@dataclasses.dataclass
class ClusteringOutput:
    """Per-machine result of one clustering episode."""

    is_leader: bool
    centers: np.ndarray
    #: this machine's local stats for the broadcast centers
    local: AssignStats
    #: leader only: the merged coreset the centers were solved on
    coreset: Coreset | None = None
    #: leader only: solver's objective value on the coreset
    coreset_cost: float = 0.0
    #: leader only: per-machine assignment histogram, shape ``(k, c)``
    counts: np.ndarray | None = None
    #: leader only: per-machine per-center enclosing radii, ``(k, c)``
    radii: np.ndarray | None = None
    #: leader only: exact global sum of nearest-center distances
    total_cost: float = 0.0


class ClusteringProgram(Program):
    """One clustering episode (see the module docstring for phases)."""

    name = "cluster-solve"

    def __init__(
        self,
        leader: int,
        n_centers: int,
        objective: str = "kmedian",
        size: int = DEFAULT_CORESET_SIZE,
        metric: "Metric | str" = "euclidean",
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; want {OBJECTIVES}"
            )
        self.leader = leader
        self.n_centers = n_centers
        self.objective = objective
        self.size = size
        self.metric = metric

    def run(
        self, ctx: MachineContext
    ) -> Generator[None, None, ClusteringOutput]:
        """Per-machine body: merge coresets, solve, broadcast, assign."""
        k = ctx.k
        t_ct = tag("cl", "ct")
        t_st = tag("cl", "st")
        block = yield from coreset_subroutine(
            ctx, self.leader, self.size, self.metric
        )
        with ctx.obs.span(tag("cluster", "solve")):
            if ctx.rank == self.leader:
                assert block is not None
                centers, coreset_cost = solve_weighted(
                    block.points,
                    block.weights,
                    self.n_centers,
                    self.objective,
                    self.metric,
                )
                cs = CenterSet(
                    centers=centers, objective=self.objective, cost=coreset_cost
                )
                ctx.broadcast(t_ct, cs)
                yield  # the broadcast's delivery round
            else:
                msg = yield from ctx.recv_one(t_ct, src=self.leader)
                cs = msg.payload
                centers = cs.centers
                coreset_cost = float(cs.cost)
        with ctx.obs.span(tag("cluster", "assign")):
            coords = np.asarray(
                getattr(ctx.local, "points", ctx.local), dtype=np.float64
            )
            if coords.ndim == 1:
                coords = coords.reshape(-1, 1)
            stats = local_assign_stats(coords, centers, self.metric)
            if ctx.rank == self.leader:
                c = len(centers)
                counts = np.zeros((k, c), dtype=np.int64)
                radii = np.zeros((k, c), dtype=np.float64)
                counts[ctx.rank] = stats.counts
                radii[ctx.rank] = stats.radii
                total = float(stats.cost)
                if k > 1:
                    replies = yield from ctx.recv(t_st, k - 1)
                    for reply in replies:
                        counts[reply.src] = reply.payload.counts
                        radii[reply.src] = reply.payload.radii
                        total += float(reply.payload.cost)
                return ClusteringOutput(
                    is_leader=True,
                    centers=centers,
                    local=stats,
                    coreset=block,
                    coreset_cost=coreset_cost,
                    counts=counts,
                    radii=radii,
                    total_cost=total,
                )
            ctx.send(self.leader, t_st, stats)
            yield  # the stats' delivery round
            return ClusteringOutput(
                is_leader=False, centers=centers, local=stats
            )


@dataclasses.dataclass
class ClusteringResult:
    """One distributed episode with its certificate, ready to assert."""

    objective: str
    n_centers: int
    coreset_size: int
    k: int
    #: the broadcast centers, shape ``(c, d)``
    centers: np.ndarray
    #: exact global cost of ``centers`` on the raw points
    cost: float
    #: sequential solver's cost on the raw points (the reference)
    seq_cost: float
    #: the measured certificate bound the distributed cost must obey
    bound: float
    #: coreset damage figures backing the bound
    movement: float
    radius: float
    #: per-machine assignment histogram / enclosing radii, ``(k, c)``
    counts: np.ndarray
    radii: np.ndarray
    messages: int
    rounds: int

    @property
    def ok(self) -> bool:
        """Certificate check: distributed cost inside the bound."""
        return self.cost <= self.bound * (1.0 + 1e-9) + 1e-12

    @property
    def relative_error(self) -> float:
        """``cost / seq_cost`` − 1 (0 when the baseline cost is 0)."""
        if self.seq_cost <= 0:
            return 0.0
        return self.cost / self.seq_cost - 1.0


def distributed_cluster(
    data: "Dataset | np.ndarray",
    n_centers: int,
    k: int,
    *,
    objective: str = "kmedian",
    size: int = DEFAULT_CORESET_SIZE,
    metric: "Metric | str" = "euclidean",
    seed: int | None = None,
    partitioner: str = "random",
    bandwidth_bits: int | None = None,
    observe: str = "off",
) -> ClusteringResult:
    """Run one clustering episode on a fresh simulator and certify it.

    Accepts a labelled :class:`~repro.points.dataset.Dataset` or a bare
    coordinate array.  The sequential baseline runs the same solver on
    the pooled raw points; the returned result's
    :attr:`~ClusteringResult.ok` is the certificate inequality.
    ``observe`` is the simulator's observability level.
    """
    rng = np.random.default_rng(seed)
    dataset = data if isinstance(data, Dataset) else make_dataset(
        np.asarray(data, dtype=np.float64), rng=rng
    )
    shards = shard_dataset(dataset, k, rng, partitioner)
    program = ClusteringProgram(
        leader=0, n_centers=n_centers, objective=objective,
        size=size, metric=metric,
    )
    sim = Simulator(
        k=k, program=program, inputs=shards, seed=seed,
        bandwidth_bits=bandwidth_bits, observe=observe,
    )
    res = sim.run()
    out: ClusteringOutput = res.outputs[0]
    assert out.is_leader and out.coreset is not None
    if objective == "kcenter":
        cost = float(out.radii.max()) if out.radii.size else 0.0
    else:
        cost = out.total_cost
    _, seq_cost = sequential_baseline(
        dataset.points, n_centers, objective, metric
    )
    return ClusteringResult(
        objective=objective,
        n_centers=n_centers,
        coreset_size=size,
        k=k,
        centers=out.centers,
        cost=cost,
        seq_cost=seq_cost,
        bound=certificate_bound(
            objective, seq_cost, out.coreset.movement, out.coreset.radius
        ),
        movement=out.coreset.movement,
        radius=out.coreset.radius,
        counts=out.counts,
        radii=out.radii,
        messages=res.metrics.messages,
        rounds=res.metrics.rounds,
    )
