"""Distributed weighted-coreset construction in the k-machine model.

**Shape** (Bandyapadhyay et al., *Near-Optimal Clustering in the
k-machine model*): every machine first compresses its own shard to at
most ``size`` weighted representatives, then the k local coresets meet
in a binomial merge tree — ⌈log₂k⌉ rounds, ``k − 1`` messages total,
and *no machine ever ingests more than one coreset-sized block per
round* (the converge-cast discipline of Pandurangan–Robinson–
Scquizzato that keeps the leader link from drowning).  The root of the
tree is the episode leader, which ends up holding one weighted summary
of the whole dataset.

**Certificates**: each compress step is a greedy k-center cover of its
input, so it *measures* what it destroyed — ``movement`` (the weighted
displacement ``Σ w·d(p, rep)``) and ``radius`` (the worst single
displacement).  These accumulate along the representative chains via
the triangle inequality, and :mod:`repro.cluster.driver` turns them
into checkable bounds: solving k-median on the merged coreset is off
from solving it on the raw points by at most the accumulated movement
(per unit of center placement), and k-center by at most the
accumulated radius.  Nothing here is estimated — both figures are
exact sums over what the compressor actually did.

Message budget: ``k − 1`` coreset blocks per episode (declared class
``k log`` in :mod:`repro.obs.conformance`; the static analyzer sees
the log-bounded merge loop with a per-iteration send).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..core.messages import tag
from ..kmachine.collectives import tree_reduce
from ..kmachine.machine import MachineContext, Program
from ..kmachine.schema import Coreset
from ..points.metrics import Metric
from .solvers import center_distances, greedy_kcenter

__all__ = [
    "CoresetProgram",
    "compress",
    "coreset_subroutine",
    "local_coreset",
    "merge_coresets",
]

#: Default number of representatives each machine (and each merge
#: node) keeps.  64 points summarise a shard well past the cost-error
#: knee on the blob workloads (see ``benchmarks/bench_cluster.py``).
DEFAULT_CORESET_SIZE = 64


def compress(
    points: np.ndarray,
    weights: np.ndarray,
    size: int,
    metric: Metric | str = "euclidean",
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Reduce a weighted set to ``<= size`` reps, measuring the damage.

    Returns ``(rep_points, rep_weights, movement, radius)`` where
    ``movement = Σ w·d(p, rep(p))`` and ``radius = max d(p, rep(p))``
    over the input.  Total weight is conserved exactly.  Inputs already
    within budget come back unchanged at zero cost.
    """
    if size < 1:
        raise ValueError("coreset size must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(points) != len(weights):
        raise ValueError("points and weights disagree on length")
    if len(points) <= size:
        return points.copy(), weights.copy(), 0.0, 0.0
    reps, _ = greedy_kcenter(points, size, weights=weights, metric=metric)
    centers = points[reps]
    dists = center_distances(points, centers, metric)
    owner = np.argmin(dists, axis=1)
    rep_weights = np.zeros(len(reps), dtype=np.float64)
    np.add.at(rep_weights, owner, weights)
    moved = dists[np.arange(len(points)), owner]
    movement = float(np.dot(moved, weights))
    radius = float(moved.max()) if len(moved) else 0.0
    return centers.copy(), rep_weights, movement, radius


def local_coreset(
    local: Any, size: int, metric: Metric | str = "euclidean"
) -> Coreset:
    """One machine's shard compressed into a :class:`Coreset` block.

    ``local`` is the machine's :class:`~repro.points.dataset.Shard`
    (or a bare coordinate array in unit tests); every original point
    starts with weight 1.
    """
    coords = np.asarray(getattr(local, "points", local), dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    pts, w, movement, radius = compress(
        coords, np.ones(len(coords), dtype=np.float64), size, metric
    )
    return Coreset(points=pts, weights=w, movement=movement, radius=radius)


def merge_coresets(
    a: Coreset, b: Coreset, size: int, metric: Metric | str = "euclidean"
) -> Coreset:
    """Union two blocks and re-compress, accumulating certificates.

    Movements add (each unit of weight moved at most the sum of its
    per-step displacements, triangle inequality); radii chain as
    ``max(r_a, r_b) + step_radius`` because a point's total
    displacement is its worst prior leg plus this step's leg.
    """
    pts = np.concatenate([a.points, b.points], axis=0)
    w = np.concatenate([a.weights, b.weights])
    rpts, rw, step_move, step_radius = compress(pts, w, size, metric)
    return Coreset(
        points=rpts,
        weights=rw,
        movement=a.movement + b.movement + step_move,
        radius=max(a.radius, b.radius) + step_radius,
    )


def coreset_subroutine(
    ctx: MachineContext,
    leader: int,
    size: int = DEFAULT_CORESET_SIZE,
    metric: "Metric | str" = "euclidean",
    prefix: str | None = None,
) -> Generator[None, None, Coreset | None]:
    """Binomial merge of per-machine coresets toward ``leader``.

    Every machine compresses its shard, then the blocks climb
    :func:`~repro.kmachine.collectives.tree_reduce`'s binomial tree
    rooted at the leader, each receiver merging ``(own, received)``.
    ⌈log₂k⌉ rounds, ``k − 1`` messages, and each receiver merges
    exactly one block per round — the leader included.

    Returns the merged :class:`Coreset` on the leader, ``None``
    everywhere else.  Shared by :class:`CoresetProgram` and
    :class:`~repro.cluster.driver.ClusteringProgram`.
    """
    prefix = prefix if prefix is not None else tag("cl", "cs")
    with ctx.obs.span(tag("cluster", "coreset")):
        with ctx.obs.span(tag("cluster", "compress")):
            block = local_coreset(ctx.local, size, metric)
        with ctx.obs.span(tag("cluster", "merge")):
            return (
                yield from tree_reduce(
                    ctx,
                    leader,
                    tag(prefix, "mg"),
                    block,
                    lambda a, b: merge_coresets(a, b, size, metric),
                )
            )


class CoresetProgram(Program):
    """One coreset-construction episode (module docstring: protocol)."""

    name = "cluster-coreset"

    def __init__(
        self,
        leader: int,
        size: int = DEFAULT_CORESET_SIZE,
        metric: "Metric | str" = "euclidean",
    ) -> None:
        self.leader = leader
        self.size = size
        self.metric = metric

    def run(
        self, ctx: MachineContext
    ) -> Generator[None, None, Coreset | None]:
        """Per-machine body: compress locally, merge up the tree."""
        block = yield from coreset_subroutine(
            ctx, self.leader, self.size, self.metric
        )
        return block
