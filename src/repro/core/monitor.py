"""Continuous ℓ-NN monitoring for moving queries (related work [18, 19]).

Yang et al. and Yu et al. study ℓ-NN queries over *moving* objects —
the query point drifts and the answer must be kept fresh.  The
paper's conclusion invites using its protocol "as a subroutine for
many other problems"; this module does so with a small geometric
optimisation the protocol structure makes natural:

**Triangle-inequality threshold reuse.**  Suppose the previous query
``q`` was answered with acceptance boundary ``b`` (the distance of
its ℓ-th neighbor).  For the new query ``q'`` with ``δ = dis(q, q')``,
every old answer point is within ``b + δ`` of ``q'`` — so the ball of
radius ``b + δ`` around ``q'`` certainly contains at least ℓ points.
Broadcasting ``r = b + δ`` (one round) is therefore a *provably safe*
pruning threshold: Algorithm 2's sampling stages (the ``O(k log ℓ)``
sample messages and their ``O(log ℓ)`` transfer rounds) can be
skipped entirely, going straight to the selection on the survivors
(in Algorithm 2's exact regime, ℓ ≤ 12⌈log₂ℓ⌉: straight to shipping the
survivors for the leader's exact cut).
For slow-moving queries the survivor set stays near ℓ and each
refresh costs only the selection's ``O(log ℓ)`` rounds with *no*
sampling traffic.

The pruning quality degrades gracefully: if the query teleports, the
ball is large, the survivor count grows toward ``kℓ``, and the
monitor (optionally) falls back to a fresh sampled query when the
carried threshold prunes worse than sampling would.

:class:`MovingKNNMonitor` wraps the bookkeeping; every refresh is
exact (the carried threshold is safe by the triangle inequality, and
``safe_mode`` still guards the pathological float-boundary cases).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kmachine.metrics import Metrics
from ..points.dataset import Dataset, make_dataset
from ..points.ids import PLUS_INF_KEY, Keyed
from ..points.metrics import Metric, get_metric
from .driver import DEFAULT_BANDWIDTH_BITS, KNNResult, distributed_knn

__all__ = ["RefreshRecord", "MovingKNNMonitor"]


@dataclass
class RefreshRecord:
    """Bookkeeping for one monitor refresh."""

    query: np.ndarray
    used_carried_threshold: bool
    threshold: Keyed | None
    survivors: int | None
    metrics: Metrics


class MovingKNNMonitor:
    """Keep the ℓ-NN of a drifting query fresh at minimal traffic.

    Parameters
    ----------
    points:
        The (static) corpus: raw array or prepared dataset.
    l, k:
        Neighbor count and machine count.
    metric:
        Any metric satisfying the triangle inequality (i.e. not
        ``sqeuclidean``); default Euclidean.
    max_blowup:
        If the carried threshold would keep more than ``max_blowup·ℓ``
        candidates (estimated from the previous survivor count and the
        ball growth), the monitor runs a fresh sampled query instead.

    Example
    -------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> monitor = MovingKNNMonitor(rng.uniform(0, 1, (2000, 2)), l=8, k=4, seed=1)
    >>> first = monitor.refresh(np.array([0.5, 0.5]))
    >>> second = monitor.refresh(np.array([0.505, 0.5]))   # tiny move
    >>> monitor.history[1].used_carried_threshold
    True
    """

    def __init__(
        self,
        points: np.ndarray | Dataset,
        l: int,
        k: int,
        *,
        metric: Metric | str = "euclidean",
        seed: int | None = None,
        bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
        max_blowup: float = 8.0,
    ) -> None:
        if l < 1 or k < 1:
            raise ValueError("l and k must be >= 1")
        self.metric = get_metric(metric)
        if self.metric.name == "sqeuclidean":
            raise ValueError(
                "squared Euclidean violates the triangle inequality; "
                "use 'euclidean' for monitoring"
            )
        self._rng = np.random.default_rng(seed)
        self.dataset = (
            points if isinstance(points, Dataset) else make_dataset(points, rng=self._rng)
        )
        if l > len(self.dataset):
            raise ValueError(f"l={l} exceeds corpus size {len(self.dataset)}")
        self.l = l
        self.k = k
        self.seed = seed
        self.bandwidth_bits = bandwidth_bits
        self.max_blowup = max_blowup
        self.history: list[RefreshRecord] = []
        self._last_query: np.ndarray | None = None
        self._last_boundary: Keyed | None = None

    # ------------------------------------------------------------------
    def _carried_threshold(self, query: np.ndarray) -> Keyed | None:
        if self._last_query is None or self._last_boundary is None:
            return None
        delta = float(
            self.metric.distances(self._last_query[None, :], query)[0]
        )
        radius = self._last_boundary.value + delta
        if not np.isfinite(radius):
            return None
        # Max-ID key: prune on the distance value only (safe; ties at
        # the radius are kept and resolved by the selection stage).
        return Keyed(radius, PLUS_INF_KEY.id)

    def refresh(self, query: np.ndarray) -> KNNResult:
        """Re-answer the ℓ-NN for the query's new position (exact)."""
        query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        if query.shape[0] != self.dataset.dim:
            raise ValueError(
                f"query dim {query.shape[0]} != corpus dim {self.dataset.dim}"
            )
        threshold = self._carried_threshold(query)
        run_seed = None if self.seed is None else int(self._rng.integers(0, 2**31))
        result = distributed_knn(
            self.dataset,
            query,
            self.l,
            self.k,
            metric=self.metric,
            algorithm="sampled",
            seed=run_seed,
            bandwidth_bits=self.bandwidth_bits,
            safe_mode=True,
            threshold=threshold,
        )
        survivors = result.leader_output.survivors
        self.history.append(
            RefreshRecord(
                query=query,
                used_carried_threshold=threshold is not None,
                threshold=threshold,
                survivors=survivors,
                metrics=result.metrics,
            )
        )
        self._last_query = query
        self._last_boundary = result.boundary
        # If the ball has grown too loose, drop the carried state so
        # the next refresh re-samples from scratch.
        if (
            threshold is not None
            and survivors is not None
            and survivors > self.max_blowup * self.l
        ):
            self._last_boundary = None
        return result

    def total_metrics(self) -> Metrics:
        """Merged communication budget across all refreshes."""
        merged = Metrics()
        for record in self.history:
            merged = merged.merge(record.metrics)
        return merged
