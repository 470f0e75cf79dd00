"""Saukas–Song deterministic distributed selection (related work [16]).

The paper's closest prior art: "Efficient selection algorithms on
distributed memory computers" (SC'98) solves the same ℓ-selection
problem deterministically using a *weighted median of local medians*
as the pivot.  Each iteration:

1. the leader broadcasts the active range ``(lo, hi]``; every machine
   replies with its local median key in range and its in-range count;
2. the leader computes the weighted (by count) lower median ``M`` of
   the reported medians — a pivot guaranteed to have at least a
   quarter of the active elements on each side;
3. one count round (identical to Algorithm 1's) shrinks the range.

Because each iteration provably discards ≥ 1/4 of the active
elements, the loop runs ``O(log N)`` iterations *deterministically*
(``N`` = initial active count; ``kℓ`` when used for ℓ-NN), versus
Algorithm 1's ``O(log N)`` *with high probability*.  The price is a
heavier per-iteration message pattern and, in the paper's framing,
``O(log(kℓ))`` rounds instead of ``O(log ℓ)`` — the comparison the
CMP benchmark quantifies.

The implementation reuses Algorithm 1's half-open-range bookkeeping
(:mod:`repro.core.selection`), differing only in pivot choice, so the
benchmark differences isolate exactly the algorithmic idea.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..kmachine.machine import MachineContext, Program
from ..points.dataset import Shard
from ..points.ids import MINUS_INF_KEY, PLUS_INF_KEY, Keyed
from ..points.metrics import Metric, get_metric
from .knn import KNNOutput, knn_output, local_candidates
from .leader import elect
from .messages import decode_key, encode_key, tag
from .selection import KeyIndex, SelectionOutput

__all__ = [
    "SaukasSongStats",
    "saukas_song_subroutine",
    "SaukasSongSelectionProgram",
    "SaukasSongKNNProgram",
]

_OP_MEDIAN = "median"
_OP_COUNT = "count"
_OP_FINISHED = "done"


@dataclass
class SaukasSongStats:
    """Leader-side statistics: iterations and per-iteration shrink."""

    iterations: int = 0
    initial_count: int = 0
    sizes: list[int] = field(default_factory=list)


def _local_median_in(index: KeyIndex, lo: Keyed, hi: Keyed) -> tuple[int, Keyed | None]:
    """(count, lower-median key) of this machine's keys in ``(lo, hi]``."""
    start = index.rank_leq(lo)
    count = index.rank_leq(hi) - start
    if count <= 0:
        return 0, None
    mid = start + (count - 1) // 2
    return count, Keyed(index.values[mid], index.ids[mid])


def _weighted_median(medians: list[tuple[Keyed, int]]) -> Keyed:
    """Lower weighted median of ``(key, weight)`` pairs.

    The smallest key ``m`` such that the total weight of keys ≤ ``m``
    is at least half the total weight — the pivot with the classic
    ≥ N/4 on each side guarantee.
    """
    if not medians:
        raise ValueError("no medians to take the weighted median of")
    ordered = sorted(medians, key=lambda kw: kw[0].as_tuple())
    total = sum(w for _, w in ordered)
    acc = 0
    for key, weight in ordered:
        acc += weight
        if 2 * acc >= total:
            return key
    return ordered[-1][0]  # pragma: no cover - unreachable


def saukas_song_subroutine(
    ctx: MachineContext,
    leader: int,
    keys: np.ndarray,
    l: int,
    prefix: str = "ss",
) -> Generator[None, None, SelectionOutput]:
    """Deterministic selection of the ℓ smallest keys (weighted medians).

    Same calling convention and output as
    :func:`repro.core.selection.selection_subroutine`; the ``stats``
    field carries a :class:`SaukasSongStats`.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    index = KeyIndex(np.sort(np.asarray(keys), order=("value", "id")))
    t_query = tag(prefix, "q")
    t_reply = tag(prefix, "r")

    if ctx.rank == leader:
        return (yield from _leader(ctx, index, l, t_query, t_reply))
    return (yield from _worker(ctx, leader, index, t_query, t_reply))


def _leader(
    ctx: MachineContext, index: KeyIndex, l: int, t_query: str, t_reply: str
) -> Generator[None, None, SelectionOutput]:
    k = ctx.k
    stats = SaukasSongStats()
    lo, hi = MINUS_INF_KEY, PLUS_INF_KEY
    remaining = l
    boundary: Keyed | None = None

    # Initial global count + extremes via one median round (counts come
    # with the medians, so no separate init phase is needed).
    s: int | None = None
    with ctx.obs.span("ssel/iterate"):
        # lint: bound[log] — the weighted median discards a constant
        # fraction of the live range per round (Saukas–Song analysis)
        while boundary is None:
            # --- median round --------------------------------------------
            if k > 1:
                ctx.broadcast(t_query, (_OP_MEDIAN, encode_key(lo), encode_key(hi)))
            my_count, my_median = _local_median_in(index, lo, hi)
            medians: list[tuple[Keyed, int]] = []
            counts = np.zeros(k, dtype=np.int64)
            counts[ctx.rank] = my_count
            if my_median is not None:
                medians.append((my_median, my_count))
            if k > 1:
                replies = yield from ctx.recv(t_reply, k - 1)
                for msg in replies:
                    _, n_i, med_wire = msg.payload
                    counts[msg.src] = n_i
                    if med_wire is not None:
                        medians.append((decode_key(med_wire), n_i))
            s = int(counts.sum())
            if stats.iterations == 0:
                stats.initial_count = s
            stats.sizes.append(s)

            if s <= remaining:
                # Everything still in range is selected (covers l >= n and
                # the empty-range degenerate case).
                boundary = hi if s > 0 else (lo if lo != MINUS_INF_KEY else MINUS_INF_KEY)
                break
            if remaining == 0:
                boundary = MINUS_INF_KEY
                break
            stats.iterations += 1
            pivot = _weighted_median(medians)

            # --- count round ---------------------------------------------
            if k > 1:
                ctx.broadcast(t_query, (_OP_COUNT, encode_key(lo), encode_key(pivot)))
            below = np.zeros(k, dtype=np.int64)
            below[ctx.rank] = index.count_in(lo, pivot)
            if k > 1:
                replies = yield from ctx.recv(t_reply, k - 1)
                for msg in replies:
                    below[msg.src] = msg.payload[1]
            s_below = int(below.sum())

            if s_below == remaining:
                boundary = pivot
            elif s_below < remaining:
                remaining -= s_below
                lo = pivot
            else:
                hi = pivot

    assert boundary is not None
    with ctx.obs.span("ssel/finish"):
        if k > 1:
            ctx.broadcast(t_query, (_OP_FINISHED, encode_key(boundary)))
            yield
    selected = index.prefix(boundary)
    # stats duck-types SelectionStats' `initial_count`/`iterations`.
    return SelectionOutput(
        selected=selected, boundary=boundary, is_leader=True, stats=stats  # type: ignore[arg-type]
    )


def _worker(
    ctx: MachineContext, leader: int, index: KeyIndex, t_query: str, t_reply: str
) -> Generator[None, None, SelectionOutput]:
    with ctx.obs.span("ssel/serve"):
        # lint: bound[log] — one op per leader halving round
        while True:
            msg = yield from ctx.recv_one(t_query, src=leader)
            op = msg.payload[0]
            if op == _OP_MEDIAN:
                lo = decode_key(msg.payload[1])
                hi = decode_key(msg.payload[2])
                count, median = _local_median_in(index, lo, hi)
                wire = None if median is None else encode_key(median)
                ctx.send(leader, t_reply, (_OP_MEDIAN, count, wire))
            elif op == _OP_COUNT:
                lo = decode_key(msg.payload[1])
                p = decode_key(msg.payload[2])
                ctx.send(leader, t_reply, (_OP_COUNT, index.count_in(lo, p)))
            elif op == _OP_FINISHED:
                boundary = decode_key(msg.payload[1])
                selected = index.prefix(boundary)
                return SelectionOutput(
                    selected=selected, boundary=boundary, is_leader=False, stats=None
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown op {op!r}")


class SaukasSongSelectionProgram(Program):
    """Standalone SPMD wrapper (input: ``(value, id)`` array per machine)."""

    name = "saukas-song-selection"

    def __init__(self, l: int, election: str = "fixed") -> None:
        self.l = l
        self.election = election

    def run(self, ctx: MachineContext) -> Generator[None, None, SelectionOutput]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election)
        keys = ctx.local if ctx.local is not None else np.empty(
            0, dtype=[("value", "f8"), ("id", "i8")]
        )
        return (yield from saukas_song_subroutine(ctx, leader, keys, self.l))


class SaukasSongKNNProgram(Program):
    """ℓ-NN via local pruning + Saukas–Song selection on the kℓ candidates.

    The natural related-work pipeline: no sampling stage, so the
    selection works over up to ``kℓ`` keys and the round count follows
    ``O(log(kℓ))`` — the comparison Theorem 2.4 is made against.
    Output is a :class:`~repro.core.knn.KNNOutput` (sampling fields
    ``None``).
    """

    name = "saukas-song-knn"

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
        sel = yield from saukas_song_subroutine(ctx, leader, candidates, self.l)
        return knn_output(
            shard,
            candidates,
            rows,
            sel.selected,
            sel.boundary,
            sel.is_leader,
            survivors=sel.stats.initial_count if sel.stats else None,
        )
