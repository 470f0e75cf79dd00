"""Batch ℓ-NN serving: many queries, one protocol session.

A serving deployment answers a stream of queries against the same
sharded corpus.  Spinning up a fresh simulation per query (what
:func:`repro.core.driver.distributed_knn` does) re-pays per-session
overheads — leader election, shard partitioning — and hides the fact
that machines keep all their state between queries.  This module runs
a whole query batch inside *one* SPMD session:

* the leader is elected once (the paper's Algorithm 1 line 1 cost is
  amortized over the batch);
* every machine keeps its shard and answers query ``i`` under the tag
  namespace ``bq/i``, so per-query traffic is separable in the
  metrics (``per_tag_messages``);
* the per-query knobs are exactly Algorithm 2's.

:func:`distributed_knn_batch` is the one-call driver; the returned
:class:`BatchResult` carries per-query answers plus the session-level
amortized accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from ..kmachine.machine import MachineContext, Program
from ..kmachine.metrics import Metrics
from ..kmachine.simulator import Simulator
from ..points.dataset import Dataset, Shard, make_dataset
from ..points.metrics import Metric, get_metric
from ..points.partition import shard_dataset
from .driver import DEFAULT_BANDWIDTH_BITS
from .knn import KNNOutput, knn_subroutine
from .leader import elect
from .messages import tag

__all__ = [
    "BatchKNNProgram",
    "BatchResult",
    "distributed_knn_batch",
    "per_query_messages",
]


@dataclass
class BatchAnswer:
    """One query's assembled global answer."""

    ids: np.ndarray
    distances: np.ndarray
    labels: np.ndarray | None


@dataclass
class BatchResult:
    """Per-query answers plus whole-session accounting."""

    answers: list[BatchAnswer]
    metrics: Metrics
    #: messages attributable to query i (sampling + selection tags)
    per_query_messages: list[int] = field(default_factory=list)

    @property
    def messages_per_query(self) -> float:
        """Amortized messages per answered query."""
        return self.metrics.messages / max(1, len(self.answers))

    @property
    def rounds_per_query(self) -> float:
        """Amortized rounds per answered query."""
        return self.metrics.rounds / max(1, len(self.answers))


class BatchKNNProgram(Program):
    """Answer a sequence of queries in one session.

    ``ctx.local`` is the machine's shard; per-machine output is the
    list of this machine's :class:`KNNOutput` per query.
    """

    name = "batch-knn"

    def __init__(
        self,
        queries: Sequence[np.ndarray],
        l: int,
        metric: Metric | str = "euclidean",
        election: str = "fixed",
        *,
        safe_mode: bool = True,
        sample_factor: int = 12,
        cutoff_factor: int = 21,
    ) -> None:
        if l < 1:
            raise ValueError("l must be >= 1")
        if not queries:
            raise ValueError("queries must be non-empty")
        self.queries = [np.atleast_1d(np.asarray(q, dtype=np.float64)) for q in queries]
        self.l = l
        self.metric = get_metric(metric)
        self.election = election
        self.safe_mode = safe_mode
        self.sample_factor = sample_factor
        self.cutoff_factor = cutoff_factor

    def run(self, ctx: MachineContext) -> Generator[None, None, list[KNNOutput]]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election)
        shard: Shard = ctx.local
        outputs: list[KNNOutput] = []
        for i, query in enumerate(self.queries):
            out = yield from knn_subroutine(
                ctx,
                leader,
                shard,
                query,
                self.l,
                self.metric,
                safe_mode=self.safe_mode,
                sample_factor=self.sample_factor,
                cutoff_factor=self.cutoff_factor,
                prefix=tag("bq", i),
            )
            outputs.append(out)
        return outputs


def distributed_knn_batch(
    points: np.ndarray | Dataset,
    queries: Sequence[np.ndarray] | np.ndarray,
    l: int,
    k: int,
    *,
    labels: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
    seed: int | None = None,
    bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
    election: str = "fixed",
    partitioner: str = "random",
    safe_mode: bool = True,
) -> BatchResult:
    """Answer every query in ``queries`` within one protocol session.

    ``queries`` may be a list of query vectors or an ``(m, d)`` array.
    Returns a :class:`BatchResult`; per-query answers are globally
    sorted by (distance, id), exactly like the one-shot driver's.
    """
    rng = np.random.default_rng(seed)
    dataset = (
        points
        if isinstance(points, Dataset)
        else make_dataset(np.asarray(points), labels=labels, rng=rng)
    )
    if not 1 <= l <= len(dataset):
        raise ValueError(f"l={l} outside [1, {len(dataset)}]")
    queries_arr = np.asarray(queries, dtype=np.float64)
    if queries_arr.ndim == 1:
        queries_arr = queries_arr[:, None] if dataset.dim == 1 else queries_arr[None, :]
    query_list = [q for q in queries_arr]
    metric_obj = get_metric(metric)
    shards = shard_dataset(dataset, k, rng, partitioner)
    sim = Simulator(
        k=k,
        program=BatchKNNProgram(
            query_list, l, metric_obj, election, safe_mode=safe_mode
        ),
        inputs=shards,
        seed=None if seed is None else seed + 1,
        bandwidth_bits=bandwidth_bits,
    )
    result = sim.run()

    answers: list[BatchAnswer] = []
    for i in range(len(query_list)):
        table_parts = []
        label_parts = []
        for per_machine in result.outputs:
            out: KNNOutput = per_machine[i]
            part = np.empty(len(out.ids), dtype=[("value", "f8"), ("id", "i8")])
            part["value"] = out.distances
            part["id"] = out.ids
            table_parts.append(part)
            if out.labels is not None:
                label_parts.append(out.labels)
        table = np.concatenate(table_parts)
        order = np.argsort(table, order=("value", "id"))
        merged_labels = (
            np.concatenate(label_parts)[order] if label_parts else None
        )
        answers.append(
            BatchAnswer(
                ids=table["id"][order].copy(),
                distances=table["value"][order].copy(),
                labels=merged_labels,
            )
        )

    return BatchResult(
        answers=answers,
        metrics=result.metrics,
        per_query_messages=per_query_messages(
            result.metrics.per_tag_messages, len(query_list)
        ),
    )


def per_query_messages(
    per_tag: dict[str, int], n_queries: int, namespace: str = "bq"
) -> list[int]:
    """Messages attributable to each query of a ``bq/i``-tagged session.

    One pass over the tag table, matching the ``namespace/i`` component
    prefix *exactly* (a ``startswith`` scan would both be
    O(queries x tags) and mis-attribute ``bq/1``'s traffic to include
    ``bq/10``'s).
    """
    counts = [0] * n_queries
    for msg_tag, count in per_tag.items():
        parts = msg_tag.split("/", 2)
        if len(parts) >= 2 and parts[0] == namespace:
            try:
                idx = int(parts[1])
            except ValueError:
                continue
            if 0 <= idx < n_queries:
                counts[idx] += count
    return counts
