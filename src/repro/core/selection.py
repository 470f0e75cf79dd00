"""Algorithm 1 — distributed randomized selection in the k-machine model.

Finds the ℓ smallest of n values distributed arbitrarily over k
machines, in O(log n) rounds and O(k log n) messages w.h.p.
(Theorem 2.2).  The values are the paper's ``(value, id)`` keys, so
duplicate values are handled by ID tie-breaking exactly as §2 says.

Protocol (leader loop, one iteration = at most 4 rounds):

1. *pivot*: the leader picks machine ``i`` with probability
   ``n_i / s`` (``n_i`` = machine ``i``'s points in the active range,
   ``s = Σ n_i``) and asks it for a uniform random in-range point;
   machine ``i`` replies with the pivot ``p``.  By Lemma 2.1 the
   composition is uniform over all in-range points.  When the leader
   draws itself, the pivot is local and the two rounds are saved.
2. *count*: the leader broadcasts ``getSize(lo, p)``; every machine
   replies with its count in ``(lo, p]``.
3. *update*: with ``s' = Σ counts``: if ``s' = ℓ`` the boundary is
   ``p``; if ``s' < ℓ`` then ``ℓ ← ℓ − s'`` and ``lo ← p``; else
   ``hi ← p``.  Counts are updated arithmetically (new range is
   either the reported counts or old − reported), so no extra rounds
   are spent re-counting.

Deviation from the paper's pseudocode (documented in DESIGN.md): the
active range is half-open ``(lo, hi]`` rather than closed
``[min, max]``.  The paper's ``min ← p`` with a closed interval would
re-count the pivot it just subtracted; exclusive lower bounds make the
invariant *accepted ⊎ active ⊎ rejected* exact and guarantee strict
progress.

The module exposes the protocol in two forms:

* :func:`selection_subroutine` — a ``yield from``-able generator so
  Algorithm 2 (and any other protocol) can embed it;
* :class:`SelectionProgram` — a standalone SPMD
  :class:`~repro.kmachine.machine.Program` whose per-machine output is
  the locally-held selected keys plus leader statistics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..kmachine.byz import (
    ByzConfig,
    ByzantineError,
    confirm_value,
    gather_quorum,
    recv_from,
    selection_iteration_cap,
    serve_gather,
    suspicions,
)
from ..kmachine.machine import MachineContext, Program
from ..kmachine.schema import SuspicionNotice
from ..points.ids import MINUS_INF_KEY, PLUS_INF_KEY, Keyed
from .leader import elect
from .messages import OP_COUNT, OP_FINISHED, OP_INIT, OP_PICK, decode_key, encode_key, tag

__all__ = [
    "SelectionStats",
    "SelectionOutput",
    "KeyIndex",
    "selection_subroutine",
    "SelectionProgram",
]

_INF = float("inf")


@dataclass
class SelectionStats:
    """Leader-side statistics for one selection run.

    ``iterations`` is the number of pivot/count loop iterations — the
    quantity Theorem 2.2 bounds by O(log n) w.h.p.  ``pivot_history``
    records ``(pivot, s_before, s_after)`` per iteration for the
    Lemma 2.1 uniformity experiment.
    """

    iterations: int = 0
    initial_count: int = 0
    self_pivots: int = 0
    pivot_history: list[tuple[Keyed, int, int]] = field(default_factory=list)
    #: Byzantine-hardened runs only: the leader's per-machine tally of
    #: keys it accepted below the boundary.  The trusted driver compares
    #: this against each machine's realised output size — a machine
    #: whose wire claims and actual output disagree lied about a count.
    accepted_counts: np.ndarray | None = None


@dataclass
class SelectionOutput:
    """Per-machine result of a selection run.

    Attributes
    ----------
    selected:
        Structured ``(value, id)`` array of this machine's locally
        held selected keys (ascending).  The union over machines is
        exactly the ℓ smallest keys.
    boundary:
        The global boundary key: a key is selected iff ``key <=
        boundary``.  Identical on every machine.
    is_leader:
        Whether this machine ran the leader role.
    stats:
        Populated on the leader only (``None`` elsewhere).
    """

    selected: np.ndarray
    boundary: Keyed
    is_leader: bool
    stats: SelectionStats | None = None


def _rank_leq(keys: np.ndarray, bound: Keyed) -> int:
    """|{x : x <= bound}| on a sorted structured array (one-off cuts).

    Loops that query the same keys repeatedly use a :class:`KeyIndex`.
    """
    if len(keys) == 0:
        return 0
    if bound.value == np.inf:
        return len(keys)
    if bound.value == -np.inf:
        return 0
    values = keys["value"]
    # All rows with value < bound.value are <= bound.
    left = int(values.searchsorted(bound.value, side="left"))
    right = int(values.searchsorted(bound.value, side="right"))
    if left == right:
        return left
    # Rows with value == bound.value: include those with id <= bound.id.
    ids = keys["id"][left:right]
    return left + int(np.sort(ids).searchsorted(bound.id, side="right"))


class KeyIndex:
    """Rank, count and draw queries over one selection run's keys.

    Built once per run from ``keys`` sorted by ``(value, id)``; holds
    the two columns as Python lists and answers every query with
    :mod:`bisect`, which on the <= ℓ keys a machine selects over costs
    a fraction of a NumPy call.  :meth:`rank_leq` agrees with
    :func:`_rank_leq`, sentinels included.
    """

    __slots__ = ("keys", "values", "ids")

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys
        self.values: list[float] = keys["value"].tolist()
        self.ids: list[int] = keys["id"].tolist()

    def extremes(self) -> tuple[int, Keyed, Keyed]:
        """Count plus (min, max) keys, with sentinels when empty."""
        values, ids = self.values, self.ids
        if not values:
            return 0, PLUS_INF_KEY, MINUS_INF_KEY
        return len(values), Keyed(values[0], ids[0]), Keyed(values[-1], ids[-1])

    def rank_leq(self, bound: Keyed) -> int:
        """|{x : x <= bound}|."""
        v = bound.value
        values = self.values
        if not v < _INF:  # +inf, or NaN, which NumPy sorts above every value
            return len(values)
        left = bisect_left(values, v)
        if left == len(values) or values[left] != v:
            return left
        right = bisect_right(values, v, left)
        return bisect_right(self.ids, bound.id, left, right)

    def count_in(self, lo: Keyed, hi: Keyed) -> int:
        """|{x : lo < x <= hi}|."""
        return self.rank_leq(hi) - self.rank_leq(lo)

    def uniform_in_range(self, lo: Keyed, hi: Keyed, rng: np.random.Generator) -> Keyed:
        """A uniform random key strictly above ``lo`` and at most ``hi``."""
        start = self.rank_leq(lo)
        stop = self.rank_leq(hi)
        if stop <= start:
            raise ValueError("no points in range; leader accounting is wrong")
        idx = start + int(rng.integers(0, stop - start))
        return Keyed(self.values[idx], self.ids[idx])

    def prefix(self, bound: Keyed) -> np.ndarray:
        """The keys ``<= bound`` (a view of the sorted keys)."""
        return self.keys[: self.rank_leq(bound)]


def selection_subroutine(
    ctx: MachineContext,
    leader: int,
    keys: np.ndarray,
    l: int,
    prefix: str = "sel",
    slack: float = 0.0,
    timeout_rounds: int | None = None,
    lower_bound: Keyed | None = None,
    byz: ByzConfig | None = None,
) -> Generator[None, None, SelectionOutput]:
    """Run Algorithm 1 as an embeddable subroutine.

    Parameters
    ----------
    ctx:
        The machine context (every machine calls this with the same
        ``leader``, ``l`` and ``prefix``).
    leader:
        Rank of the (already elected / known) leader.
    keys:
        This machine's local keys as a structured ``(value, id)``
        array sorted by ``(value, id)`` — use
        :func:`repro.points.ids.keyed_array`.
    l:
        How many globally smallest keys to select (``0 <= l``; if
        ``l`` is at least the global count, everything is selected).
    prefix:
        Tag namespace, so nested invocations do not collide.
    slack:
        Approximation knob (an extension; the paper's algorithm is
        ``slack=0``).  With ``slack = δ > 0`` the leader stops as soon
        as the active range holds at most ``(1 + δ)·remaining`` keys
        and accepts the whole range: the output then contains *all* of
        the true ℓ smallest keys plus at most ``δ·ℓ`` extras, in
        correspondingly fewer pivot iterations.  Useful when the
        caller post-filters anyway (e.g. a classifier voting over the
        neighbor set tolerates a few extras).
    timeout_rounds:
        Missed-heartbeat failure detection: bound every protocol
        receive to this many rounds (``None`` = wait forever, the
        reliable-links default).  Under fault injection a crashed or
        unreachable peer then surfaces as an error within a bounded
        number of rounds instead of hitting the simulator's global
        deadlock guard.  Must comfortably exceed the longest legitimate
        gap between messages (congested links stretch the gaps).
    lower_bound:
        Splitter-reuse hook (the :mod:`repro.dyn` rebalancer): restrict
        the selection to keys strictly above this key.  Every machine
        applies the same cut locally before the protocol starts, so a
        sequence of calls with increasing ``lower_bound`` values picks
        successive order statistics — ``k−1`` migration splitters —
        each over a shrinking key population, without re-shipping any
        state.  ``None`` (the default) selects over all keys.
    byz:
        Byzantine hardening (:class:`~repro.kmachine.byz.ByzConfig`).
        ``None`` (the default) runs the paper's plain protocol with
        byte-identical traffic — zero overhead.  Otherwise every
        worker-to-leader scalar travels through a quorum-verified
        gather, pivots are validated and stalling providers struck
        from the pivot supply, iterations are hard-capped, and the
        finish boundary is cross-confirmed among workers so every
        honest machine adopts the same boundary even under a lying
        leader.

    Returns
    -------
    :class:`SelectionOutput` for this machine.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    keys = np.sort(np.asarray(keys), order=("value", "id"))
    if lower_bound is not None:
        # Identical deterministic cut on every machine: drop keys
        # <= lower_bound so the run selects among the remainder only.
        keys = keys[_rank_leq(keys, lower_bound):]
    index = KeyIndex(keys)
    t_query = tag(prefix, "q")
    t_reply = tag(prefix, "r")

    if byz is not None and ctx.k > 1:
        byz.validate(ctx.k)
        if ctx.rank == leader:
            output = yield from _leader_role_byz(ctx, index, l, prefix, slack, byz)
        else:
            output = yield from _worker_role_byz(ctx, leader, index, prefix, byz)
    elif ctx.rank == leader:
        output = yield from _leader_role(
            ctx, index, l, t_query, t_reply, slack, timeout_rounds
        )
    else:
        output = yield from _worker_role(
            ctx, leader, index, t_query, t_reply, timeout_rounds
        )
    return output


def _leader_role(
    ctx: MachineContext,
    index: KeyIndex,
    l: int,
    t_query: str,
    t_reply: str,
    slack: float = 0.0,
    timeout_rounds: int | None = None,
) -> Generator[None, None, SelectionOutput]:
    k = ctx.k
    stats = SelectionStats()

    # --- init: learn (n_i, min_i, max_i) from every machine ----------
    with ctx.obs.span("sel/init"):
        if k > 1:
            ctx.broadcast(t_query, (OP_INIT,))
            replies = yield from ctx.recv(t_reply, k - 1, max_rounds=timeout_rounds)
        else:
            replies = []
        counts = np.zeros(k, dtype=np.int64)
        lo, hi = PLUS_INF_KEY, MINUS_INF_KEY
        n_self, min_self, max_self = index.extremes()
        counts[ctx.rank] = n_self
        lo = min(lo, min_self)
        hi = max(hi, max_self)
        for msg in replies:
            _, n_i, min_wire, max_wire = msg.payload
            counts[msg.src] = n_i
            if n_i > 0:
                lo = min(lo, decode_key(min_wire))
                hi = max(hi, decode_key(max_wire))
        s = int(counts.sum())
        stats.initial_count = s
        remaining = l

    if s <= remaining * (1.0 + slack) or s == 0:
        boundary = hi if s > 0 else MINUS_INF_KEY
        with ctx.obs.span("sel/finish"):
            return (yield from _finish_leader(ctx, index, boundary, t_query, stats))

    # Active range is (active_lo, active_hi]; everything <= active_lo is
    # already accepted (and subtracted from `remaining`).
    active_lo = MINUS_INF_KEY
    active_hi = hi
    boundary: Keyed | None = None
    if remaining == 0:
        boundary = MINUS_INF_KEY

    with ctx.obs.span("sel/iterate"):
        # lint: bound[log] — O(log s) iterations w.h.p. (Theorem 2.2)
        while boundary is None:
            stats.iterations += 1
            # --- pivot selection: machine i w.p. counts[i] / s ------------
            choice = int(ctx.rng.choice(k, p=counts / s))
            if choice == ctx.rank:
                pivot = index.uniform_in_range(active_lo, active_hi, ctx.rng)
                stats.self_pivots += 1
            else:
                ctx.send(
                    choice,
                    t_query,
                    (OP_PICK, encode_key(active_lo), encode_key(active_hi)),
                )
                msg = yield from ctx.recv_one(
                    t_reply, src=choice, max_rounds=timeout_rounds
                )
                pivot = decode_key(msg.payload[1])

            # --- count |{x : active_lo < x <= pivot}| ----------------------
            if k > 1:
                ctx.broadcast(
                    t_query, (OP_COUNT, encode_key(active_lo), encode_key(pivot))
                )
            below = np.zeros(k, dtype=np.int64)
            below[ctx.rank] = index.count_in(active_lo, pivot)
            if k > 1:
                replies = yield from ctx.recv(t_reply, k - 1, max_rounds=timeout_rounds)
                for msg in replies:
                    below[msg.src] = msg.payload[1]
            s_below = int(below.sum())
            stats.pivot_history.append((pivot, s, s_below))

            # --- range update ---------------------------------------------
            if s_below == remaining:
                boundary = pivot
            elif s_below < remaining:
                remaining -= s_below
                active_lo = pivot
                counts = counts - below
                s = int(counts.sum())
            else:
                active_hi = pivot
                counts = below
                s = s_below
            if boundary is None and s <= remaining * (1.0 + slack):
                # Every point left in the active range is accepted (with
                # slack = 0 this is the paper's exact s == remaining stop;
                # otherwise up to slack*l extras ride along).
                boundary = active_hi

    with ctx.obs.span("sel/finish"):
        return (yield from _finish_leader(ctx, index, boundary, t_query, stats))


def _finish_leader(
    ctx: MachineContext,
    index: KeyIndex,
    boundary: Keyed,
    t_query: str,
    stats: SelectionStats,
) -> Generator[None, None, SelectionOutput]:
    if ctx.k > 1:
        ctx.broadcast(t_query, (OP_FINISHED, encode_key(boundary)))
        yield  # the broadcast's round
    selected = index.prefix(boundary)
    return SelectionOutput(
        selected=selected, boundary=boundary, is_leader=True, stats=stats
    )


def _worker_role(
    ctx: MachineContext,
    leader: int,
    index: KeyIndex,
    t_query: str,
    t_reply: str,
    timeout_rounds: int | None = None,
) -> Generator[None, None, SelectionOutput]:
    n, kmin, kmax = index.extremes()
    with ctx.obs.span("sel/serve"):
        # lint: bound[log] — one op per leader iteration, O(log s) w.h.p.
        while True:
            msg = yield from ctx.recv_one(
                t_query, src=leader, max_rounds=timeout_rounds
            )
            op = msg.payload[0]
            if op == OP_INIT:
                ctx.send(
                    leader, t_reply, (OP_INIT, n, encode_key(kmin), encode_key(kmax))
                )
            elif op == OP_PICK:
                lo = decode_key(msg.payload[1])
                hi = decode_key(msg.payload[2])
                pivot = index.uniform_in_range(lo, hi, ctx.rng)
                ctx.send(leader, t_reply, (OP_PICK, encode_key(pivot)))
            elif op == OP_COUNT:
                lo = decode_key(msg.payload[1])
                p = decode_key(msg.payload[2])
                ctx.send(leader, t_reply, (OP_COUNT, index.count_in(lo, p)))
            elif op == OP_FINISHED:
                boundary = decode_key(msg.payload[1])
                selected = index.prefix(boundary)
                return SelectionOutput(
                    selected=selected, boundary=boundary, is_leader=False, stats=None
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"worker {ctx.rank} got unknown op {op!r}")


# ----------------------------------------------------------------------
# Byzantine-hardened roles (byz is not None)
#
# Wire layout: leader ops still travel on tag(prefix, "q"), but every
# worker reply is replaced by a quorum-verified gather on per-phase
# tags — value broadcasts on tag(prefix, "gv", i) and echo relays on
# tag(prefix, "ge", i), where i counts init/count gathers in op order
# on both sides, so lagging receivers can never mix phases.  Pivot
# replies carry the request's sequence number in their tag, the finish
# boundary is cross-confirmed on tag(prefix, "fc"), and the leader's
# ban notices ride tag(prefix, "sus").
# ----------------------------------------------------------------------

def _parse_init(payload) -> tuple[int, Keyed, Keyed] | None:
    try:
        op, n, min_wire, max_wire = payload
        if op != OP_INIT:
            return None
        n = int(n)
        if n < 0:
            return None
        return n, decode_key(min_wire), decode_key(max_wire)
    except (TypeError, ValueError):
        return None


def _parse_count(payload) -> int | None:
    try:
        op, count = payload
        if op != OP_COUNT:
            return None
        return int(count)
    except (TypeError, ValueError):
        return None


def _validated_pivot(payload, lo: Keyed, hi: Keyed) -> Keyed | None:
    """Decode a pivot reply, rejecting forged or out-of-range values."""
    try:
        op, wire = payload
        if op != OP_PICK or wire is None:
            return None
        pivot = decode_key(wire)
    except (TypeError, ValueError):
        return None
    if not np.isfinite(pivot.value):
        return None
    if not (lo < pivot <= hi):
        return None
    return pivot


def _leader_role_byz(
    ctx: MachineContext,
    index: KeyIndex,
    l: int,
    prefix: str,
    slack: float,
    cfg: ByzConfig,
) -> Generator[None, None, SelectionOutput]:
    k = ctx.k
    tracker = suspicions(ctx)
    stats = SelectionStats()
    t_query = tag(prefix, "q")
    t_sus = tag(prefix, "sus")
    workers = cfg.workers(k, ctx.rank)
    accepted = np.zeros(k, dtype=np.int64)

    def t_gv(i: int) -> str:
        return tag(prefix, "gv", i)

    def t_ge(i: int) -> str:
        return tag(prefix, "ge", i)

    # --- init gather -------------------------------------------------
    with ctx.obs.span("sel/init"):
        ctx.broadcast(t_query, (OP_INIT,))
        resolved = yield from gather_quorum(ctx, cfg, t_gv(0), t_ge(0), tracker)
        counts = np.zeros(k, dtype=np.int64)
        n_self, min_self, max_self = index.extremes()
        counts[ctx.rank] = n_self
        lo, hi = min_self, max_self
        for j, payload in resolved.items():
            parsed = _parse_init(payload)
            if parsed is None:
                if payload is not None:
                    tracker.accuse(j, "malformed init report")
                continue
            n_j, min_j, max_j = parsed
            counts[j] = n_j
            if n_j > 0:
                lo = min(lo, min_j)
                hi = max(hi, max_j)
        s = int(counts.sum())
        stats.initial_count = s
        remaining = l

    if s <= remaining * (1.0 + slack) or s == 0:
        boundary = hi if s > 0 else MINUS_INF_KEY
        accepted = counts.copy() if s > 0 else accepted
        stats.accepted_counts = accepted
        with ctx.obs.span("sel/finish"):
            return (
                yield from _finish_leader_byz(ctx, index, boundary, prefix, stats, cfg)
            )

    active_lo = MINUS_INF_KEY
    active_hi = hi
    boundary: Keyed | None = None
    if remaining == 0:
        boundary = MINUS_INF_KEY

    # --- hardened pivot/count loop -----------------------------------
    gather_idx = 0
    pick_seq = 0
    cap = selection_iteration_cap(s, k)
    strikes: dict[int, int] = {}
    banned: set[int] = set(cfg.quarantined)

    def strike(rank: int, reason: str) -> None:
        strikes[rank] = strikes.get(rank, 0) + 1
        tracker.accuse(rank, reason)
        if strikes[rank] >= 2 and rank not in banned:
            banned.add(rank)
            ctx.broadcast(t_sus, SuspicionNotice(suspect=rank, reason=reason))

    with ctx.obs.span("sel/iterate"):
        # lint: bound[log] — the iteration cap is O(log s) (Theorem 2.4)
        while boundary is None:
            stats.iterations += 1
            if stats.iterations > cap:
                suspects = [r for r in workers if strikes.get(r, 0) >= 2]
                if not suspects:
                    suspects = [r for r in workers if counts[r] > 0 and strikes.get(r)]
                if not suspects:
                    suspects = tracker.suspects()[: max(1, cfg.f)]
                raise ByzantineError(
                    f"selection exceeded the {cap}-iteration Byzantine cap",
                    suspects=suspects,
                )
            # Pivot draw: banned machines keep their data counted but
            # lose the right to supply pivots.
            weights = counts.astype(float)
            for r in banned:
                if r != ctx.rank:
                    weights[r] = 0.0
            total = float(weights.sum())
            if total <= 0.0:
                weights = counts.astype(float)
                total = float(weights.sum())
            if total <= 0.0:
                raise ByzantineError(
                    "active range emptied under Byzantine accounting",
                    suspects=tracker.suspects()[: max(1, cfg.f)],
                )
            choice = int(ctx.rng.choice(k, p=weights / total))
            before = (active_lo, active_hi, s, remaining)
            if choice == ctx.rank:
                try:
                    pivot = index.uniform_in_range(active_lo, active_hi, ctx.rng)
                except ValueError:
                    # Own in-range count was poisoned by forged extremes;
                    # burn the iteration (the cap bounds the damage).
                    continue
                stats.self_pivots += 1
            else:
                pick_seq += 1
                ctx.send(
                    choice,
                    t_query,
                    (OP_PICK, pick_seq, encode_key(active_lo), encode_key(active_hi)),
                )
                reply = yield from recv_from(
                    ctx, tag(prefix, "pv", pick_seq), [choice],
                    cfg.confirm_timeout_rounds,
                )
                pivot = _validated_pivot(reply.get(choice), active_lo, active_hi)
                if pivot is None:
                    strike(choice, "invalid or missing pivot")
                    continue

            gather_idx += 1
            ctx.broadcast(
                t_query, (OP_COUNT, encode_key(active_lo), encode_key(pivot))
            )
            resolved = yield from gather_quorum(
                ctx, cfg, t_gv(gather_idx), t_ge(gather_idx), tracker
            )
            below = np.zeros(k, dtype=np.int64)
            below[ctx.rank] = index.count_in(active_lo, pivot)
            for j, payload in resolved.items():
                count = _parse_count(payload)
                if count is None:
                    if payload is not None:
                        tracker.accuse(j, "malformed count report")
                    count = 0
                # A machine cannot hold more in (lo, p] than its known
                # active-range total: clamp the claim into [0, counts[j]].
                below[j] = min(max(count, 0), int(counts[j]))
            s_below = int(below.sum())
            stats.pivot_history.append((pivot, s, s_below))

            if s_below == remaining:
                boundary = pivot
                accepted += below
            elif s_below < remaining:
                remaining -= s_below
                active_lo = pivot
                counts = counts - below
                s = int(counts.sum())
                accepted += below
            else:
                active_hi = pivot
                counts = below
                s = s_below
            if boundary is None and s <= remaining * (1.0 + slack):
                boundary = active_hi
                accepted += counts
            if (
                boundary is None
                and (active_lo, active_hi, s, remaining) == before
                and choice != ctx.rank
            ):
                strike(choice, "stalling pivot (no progress)")

    stats.accepted_counts = accepted
    with ctx.obs.span("sel/finish"):
        return (yield from _finish_leader_byz(ctx, index, boundary, prefix, stats, cfg))


def _finish_leader_byz(
    ctx: MachineContext,
    index: KeyIndex,
    boundary: Keyed,
    prefix: str,
    stats: SelectionStats,
    cfg: ByzConfig,
) -> Generator[None, None, SelectionOutput]:
    ctx.broadcast(tag(prefix, "q"), (OP_FINISHED, encode_key(boundary)))
    yield
    selected = index.prefix(boundary)
    return SelectionOutput(
        selected=selected, boundary=boundary, is_leader=True, stats=stats
    )


def _worker_role_byz(
    ctx: MachineContext,
    leader: int,
    index: KeyIndex,
    prefix: str,
    cfg: ByzConfig,
) -> Generator[None, None, SelectionOutput]:
    tracker = suspicions(ctx)
    t_query = tag(prefix, "q")
    t_sus = tag(prefix, "sus")
    n, kmin, kmax = index.extremes()
    gather_idx = 0
    pending: deque = deque()
    waited = 0

    with ctx.obs.span("sel/serve"):
        # lint: bound[log] — ops track the capped leader iteration count
        while True:
            pending.extend(ctx.take(t_query, src=leader))
            if not pending:
                if waited >= cfg.op_budget(ctx.k):
                    tracker.accuse(leader, "selection leader silent")
                    raise ByzantineError(
                        f"machine {ctx.rank}: selection leader {leader} went silent",
                        suspects=(leader,),
                    )
                yield
                waited += 1
                continue
            waited = 0
            payload = pending.popleft().payload
            if not isinstance(payload, tuple) or not payload:
                tracker.accuse(leader, "malformed selection op")
                continue
            op = payload[0]
            if op == OP_INIT:
                yield from serve_gather(
                    ctx,
                    leader,
                    cfg,
                    tag(prefix, "gv", 0),
                    tag(prefix, "ge", 0),
                    (OP_INIT, n, encode_key(kmin), encode_key(kmax)),
                )
            elif op == OP_PICK:
                try:
                    seq = int(payload[1])
                    lo = decode_key(payload[2])
                    hi = decode_key(payload[3])
                except (TypeError, ValueError, IndexError):
                    tracker.accuse(leader, "malformed pick request")
                    continue
                try:
                    pivot_wire = encode_key(index.uniform_in_range(lo, hi, ctx.rng))
                except ValueError:
                    # Nothing of mine in the (possibly forged) range; a
                    # None reply lets the leader strike rather than stall.
                    pivot_wire = None
                ctx.send(leader, tag(prefix, "pv", seq), (OP_PICK, pivot_wire))
            elif op == OP_COUNT:
                try:
                    lo = decode_key(payload[1])
                    p = decode_key(payload[2])
                    count = index.count_in(lo, p)
                except (TypeError, ValueError, IndexError):
                    tracker.accuse(leader, "malformed count request")
                    count = 0
                gather_idx += 1
                yield from serve_gather(
                    ctx,
                    leader,
                    cfg,
                    tag(prefix, "gv", gather_idx),
                    tag(prefix, "ge", gather_idx),
                    (OP_COUNT, count),
                )
            elif op == OP_FINISHED:
                own = payload[1] if len(payload) > 1 else None
                adopted = yield from confirm_value(
                    ctx, leader, cfg, own, tag(prefix, "fc"), tracker
                )
                try:
                    boundary = decode_key(adopted)
                except (TypeError, ValueError):
                    tracker.accuse(leader, "malformed finish boundary")
                    raise ByzantineError(
                        f"machine {ctx.rank}: unusable finish boundary",
                        suspects=(leader,),
                    )
                for msg in ctx.take(t_sus, src=leader):
                    if isinstance(msg.payload, SuspicionNotice):
                        tracker.fold_notice(msg.payload)
                selected = index.prefix(boundary)
                return SelectionOutput(
                    selected=selected, boundary=boundary, is_leader=False, stats=None
                )
            else:
                tracker.accuse(leader, f"unknown selection op {op!r}")


class SelectionProgram(Program):
    """Standalone SPMD wrapper: elect (or fix) a leader, then select.

    Machine-local input (``ctx.local``) must be a structured
    ``(value, id)`` array (see :func:`repro.points.ids.keyed_array`).
    Per-machine output is a :class:`SelectionOutput`.

    Parameters
    ----------
    l:
        Number of globally smallest keys to select.
    election:
        ``"fixed"`` (leader = rank 0; the model's known-leader case),
        ``"min_id"`` or ``"sublinear"``.
    slack:
        Approximate-selection knob (see
        :func:`selection_subroutine`); ``0`` is the paper's exact
        algorithm.
    timeout_rounds:
        Per-receive round budget for missed-heartbeat failure
        detection (see :func:`selection_subroutine`).
    """

    name = "algorithm1-selection"

    def __init__(
        self,
        l: int,
        election: str = "fixed",
        slack: float = 0.0,
        timeout_rounds: int | None = None,
        byz: ByzConfig | None = None,
    ) -> None:
        if l < 0:
            raise ValueError(f"l must be >= 0, got {l}")
        self.l = l
        self.election = election
        self.slack = slack
        self.timeout_rounds = timeout_rounds
        self.byz = byz

    def run(self, ctx: MachineContext) -> Generator[None, None, SelectionOutput]:
        """Per-machine program body (see the class docstring)."""
        leader = yield from elect(ctx, method=self.election, byz=self.byz)
        keys = ctx.local if ctx.local is not None else np.empty(
            0, dtype=[("value", "f8"), ("id", "i8")]
        )
        output = yield from selection_subroutine(
            ctx, leader, keys, self.l, slack=self.slack,
            timeout_rounds=self.timeout_rounds, byz=self.byz,
        )
        return output
