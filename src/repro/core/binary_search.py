"""Binary search over distance *values* (related work [3, 18]).

The approaches of Cahsai et al. and Yang et al. binary-search the
numeric range of distances from the query: the leader keeps a numeric
interval ``(lo, hi]`` bracketing the ℓ-th smallest distance, probes
the midpoint with a global count, and halves the interval.  Unlike
the comparison-based Algorithm 1, the round count depends on the
*value range and resolution* — ``O(log(Δ/ε))`` iterations for range
``Δ`` — not on ``n``, which is exactly the trade-off the paper's
related-work section points at (and footnote 3's conjecture is
about).

Two phases:

1. *Value search*: float midpoint probes until either some midpoint's
   global count equals ℓ, or the interval collapses to a single
   representable float ``v*`` (the ℓ-th smallest distance value,
   possibly shared by several tied points).
2. *Tie resolution*: when ties straddle ℓ, a second binary search on
   the integer ID space (within the tied value) finds the cut ID, so
   the output is the same exact (distance, id)-ordered set the other
   protocols produce.

Implemented with the same leader/worker query-reply skeleton as
Algorithm 1; output is a :class:`~repro.core.selection.SelectionOutput`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..kmachine.machine import MachineContext, Program
from ..points.dataset import Shard
from ..points.ids import MINUS_INF_KEY, Keyed
from ..points.metrics import Metric, get_metric
from .knn import KNNOutput, knn_output, local_candidates
from .leader import elect
from .messages import encode_key, tag
from .selection import KeyIndex, SelectionOutput

__all__ = [
    "BinarySearchStats",
    "binary_search_subroutine",
    "BinarySearchSelectionProgram",
    "BinarySearchKNNProgram",
]

_OP_EXTENT = "extent"
_OP_COUNT = "count"     # count of keys <= (value, id) bound
_OP_FINISHED = "done"


@dataclass
class BinarySearchStats:
    """Leader-side statistics for the two binary-search phases."""

    value_iterations: int = 0
    id_iterations: int = 0
    initial_count: int = 0

    @property
    def iterations(self) -> int:
        """Total probe iterations (value + ID phases)."""
        return self.value_iterations + self.id_iterations


def binary_search_subroutine(
    ctx: MachineContext,
    leader: int,
    keys: np.ndarray,
    l: int,
    prefix: str = "bs",
) -> Generator[None, None, SelectionOutput]:
    """Select the ℓ smallest keys by numeric bisection on values.

    Same calling convention and output as
    :func:`repro.core.selection.selection_subroutine`.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    index = KeyIndex(np.sort(np.asarray(keys), order=("value", "id")))
    t_query = tag(prefix, "q")
    t_reply = tag(prefix, "r")
    if ctx.rank == leader:
        return (yield from _leader(ctx, index, l, t_query, t_reply))
    return (yield from _worker(ctx, leader, index, t_query, t_reply))


def _global_count(
    ctx: MachineContext, index: KeyIndex, bound: Keyed, t_query: str, t_reply: str
) -> Generator[None, None, int]:
    """Leader helper: broadcast a count probe and sum the replies."""
    with ctx.obs.span("bsel/count"):
        if ctx.k > 1:
            ctx.broadcast(t_query, (_OP_COUNT, encode_key(bound)))
        total = index.rank_leq(bound)
        if ctx.k > 1:
            replies = yield from ctx.recv(t_reply, ctx.k - 1)
            total += sum(msg.payload[1] for msg in replies)
        return total


def _leader(
    ctx: MachineContext, index: KeyIndex, l: int, t_query: str, t_reply: str
) -> Generator[None, None, SelectionOutput]:
    k = ctx.k
    stats = BinarySearchStats()
    max_id = np.iinfo(np.int64).max

    # Extent round: learn global [min value, max value] and total count.
    with ctx.obs.span("bsel/init"):
        if k > 1:
            ctx.broadcast(t_query, (_OP_EXTENT,))
        values = index.values
        n_self = len(values)
        vmin = values[0] if n_self else np.inf
        vmax = values[-1] if n_self else -np.inf
        total = n_self
        if k > 1:
            replies = yield from ctx.recv(t_reply, k - 1)
            for msg in replies:
                _, n_i, lo_i, hi_i = msg.payload
                total += n_i
                if n_i > 0:
                    vmin = min(vmin, lo_i)
                    vmax = max(vmax, hi_i)
        stats.initial_count = total

    if l == 0 or total == 0:
        return (yield from _finish(ctx, index, MINUS_INF_KEY, t_query, stats))
    if total <= l:
        boundary = Keyed(vmax, max_id)
        return (yield from _finish(ctx, index, boundary, t_query, stats))

    # Phase 1: bisect on the value axis for v* = the l-th smallest value.
    # Invariant: count(<= lo_val with any id) < l <= count(<= hi_val).
    lo_val, hi_val = vmin, vmax
    count_lo = yield from _global_count(
        ctx, index, Keyed(lo_val, max_id), t_query, t_reply
    )
    stats.value_iterations += 1
    if count_lo >= l:
        # The minimum value already covers l (massive tie at vmin).
        hi_val = lo_val
    while hi_val > lo_val:
        mid = 0.5 * (lo_val + hi_val)
        if mid <= lo_val or mid >= hi_val:
            break  # interval collapsed to adjacent floats
        stats.value_iterations += 1
        c = yield from _global_count(ctx, index, Keyed(mid, max_id), t_query, t_reply)
        if c == l:
            return (yield from _finish(ctx, index, Keyed(mid, max_id), t_query, stats))
        if c < l:
            lo_val = mid
        else:
            hi_val = mid
    v_star = hi_val

    # Phase 2: resolve ties at v*.  count(< v*) keys are all in; we
    # need the (l - count(< v*)) smallest ids among value == v*.
    stats.id_iterations += 1
    c_below = yield from _global_count(
        ctx, index, Keyed(v_star, 0), t_query, t_reply
    )  # ids are >= 1, so id 0 counts strictly-smaller values only
    need = l - c_below
    if need <= 0:  # pragma: no cover - invariant violation guard
        raise AssertionError("binary search lost the bracketing invariant")
    lo_id, hi_id = 0, max_id  # smallest id t with count(<= (v*, t)) - c_below >= need
    while hi_id - lo_id > 1:
        mid_id = lo_id + (hi_id - lo_id) // 2
        stats.id_iterations += 1
        c = yield from _global_count(
            ctx, index, Keyed(v_star, mid_id), t_query, t_reply
        )
        if c - c_below >= need:
            hi_id = mid_id
        else:
            lo_id = mid_id
    boundary = Keyed(v_star, hi_id)
    return (yield from _finish(ctx, index, boundary, t_query, stats))


def _finish(
    ctx: MachineContext,
    index: KeyIndex,
    boundary: Keyed,
    t_query: str,
    stats: BinarySearchStats,
) -> Generator[None, None, SelectionOutput]:
    with ctx.obs.span("bsel/finish"):
        if ctx.k > 1:
            ctx.broadcast(t_query, (_OP_FINISHED, encode_key(boundary)))
            yield
        selected = index.prefix(boundary)
        return SelectionOutput(
            selected=selected, boundary=boundary, is_leader=True, stats=stats  # type: ignore[arg-type]
        )


def _worker(
    ctx: MachineContext, leader: int, index: KeyIndex, t_query: str, t_reply: str
) -> Generator[None, None, SelectionOutput]:
    values = index.values
    n = len(values)
    vmin = values[0] if n else np.inf
    vmax = values[-1] if n else -np.inf
    with ctx.obs.span("bsel/serve"):
        # lint: bound[log] — one op per leader bisection probe
        while True:
            msg = yield from ctx.recv_one(t_query, src=leader)
            op = msg.payload[0]
            if op == _OP_EXTENT:
                ctx.send(leader, t_reply, (_OP_EXTENT, n, vmin, vmax))
            elif op == _OP_COUNT:
                value, id_ = msg.payload[1]
                ctx.send(
                    leader, t_reply, (_OP_COUNT, index.rank_leq(Keyed(value, id_)))
                )
            elif op == _OP_FINISHED:
                value, id_ = msg.payload[1]
                boundary = Keyed(value, id_)
                selected = index.prefix(boundary)
                return SelectionOutput(
                    selected=selected, boundary=boundary, is_leader=False, stats=None
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown op {op!r}")


class BinarySearchSelectionProgram(Program):
    """Standalone SPMD wrapper (input: ``(value, id)`` array per machine)."""

    name = "binary-search-selection"

    def __init__(self, l: int, election: str = "fixed") -> None:
        self.l = l
        self.election = election

    def run(self, ctx: MachineContext) -> Generator[None, None, SelectionOutput]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election)
        keys = ctx.local if ctx.local is not None else np.empty(
            0, dtype=[("value", "f8"), ("id", "i8")]
        )
        return (yield from binary_search_subroutine(ctx, leader, keys, self.l))


class BinarySearchKNNProgram(Program):
    """ℓ-NN via local pruning + numeric bisection on distances.

    Output is a :class:`~repro.core.knn.KNNOutput` (sampling fields
    ``None``); used by the CMP benchmark.
    """

    name = "binary-search-knn"

    def __init__(
        self,
        query: np.ndarray | float,
        l: int,
        metric: Metric | str = "euclidean",
        election: str = "fixed",
    ) -> None:
        self.query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        self.l = l
        self.metric = get_metric(metric)
        self.election = election

    def run(self, ctx: MachineContext) -> Generator[None, None, KNNOutput]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election)
        shard: Shard = ctx.local
        candidates, rows = local_candidates(shard, self.query, self.l, self.metric)
        sel = yield from binary_search_subroutine(ctx, leader, candidates, self.l)
        return knn_output(
            shard,
            candidates,
            rows,
            sel.selected,
            sel.boundary,
            sel.is_leader,
            survivors=sel.stats.initial_count if sel.stats else None,
        )
