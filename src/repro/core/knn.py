"""Algorithm 2 — distributed ℓ-nearest neighbors in O(log ℓ) rounds.

Given a query ``q`` known to every machine, Algorithm 2 computes the
ℓ-NN of ``q`` over the union of the machines' point sets in
``O(log ℓ)`` rounds and ``O(k log ℓ)`` messages w.h.p. (Theorem 2.4)
— independent of both the number of machines ``k`` and the global
point count ``n``.  The stages, following the paper's pseudocode:

1. *Leader election* (pluggable; the model's "known leader" default).
2. *Local pruning*: machine ``i`` keeps only its ``ℓ`` closest points
   ``S_i`` (a single machine could hold all the answers, so nothing
   farther can matter).  Distances become ``(value, id)`` keys.
3. *Sampling*: each machine draws ``12·log₂ ℓ`` random points of
   ``S_i`` and sends them — one key per message, so the message
   metric counts the paper's ``O(k log ℓ)`` and the bandwidth queue
   charges ``O(log ℓ)`` rounds per (parallel) link.  Machines with
   fewer candidates than the sample size pad with sentinel messages
   so the leader's gather is exact.
4. *Threshold*: the leader sorts the sampled keys and broadcasts
   ``r``, the key at index ``21·log₂ ℓ``.  By Lemma 2.3 at most
   ``11ℓ`` candidates survive below ``r`` w.h.p., and w.h.p. every
   true neighbor does.
5. *Pruning*: each machine discards keys above ``r``.
6. *Selection*: Algorithm 1 on the survivors finds the ℓ smallest
   distance keys; machines output the corresponding points.

The sampling constants (12 and 21) are the proof's choices; both are
constructor parameters so the ablation benchmarks can probe how much
slack the analysis leaves.

Exact regime.  A machine holds at most ``ℓ`` candidates, so when
``ℓ ≤ sample_factor·⌈log₂ ℓ⌉`` (every ℓ ≤ 84 at the default 12) the
stage-3 "sample" is the whole candidate set and the leader already
holds a superset of the answer.  There — plain mode (``byz is None``),
``prune=True``, ``k > 1`` — stages 3–6 become a deterministic protocol:

* *certificate* (:func:`_certify`): machine ``i`` sends one message
  ``(|S_i|, v₁, v₂, v₃)``, where ``v_j`` is the distance value of its
  key at local rank ``r_j = min(⌈j·ℓ/2k⌉, |S_i|)`` — ½, 1 and 1½ times
  ``ℓ/k`` — so it holds at least ``r_j`` keys at or below
  ``(v_j, max id)``.  Four words: 256 payload bits, 272 with the header,
  one message and one link-round at the default ``B = 512``;
* *bound*: the leader walks every report in value order, keeps each
  machine's largest rank reached, and broadcasts ``τ = (v, max id)`` at
  the first report where those ranks sum to ℓ (+∞ if they never do) —
  so at least ℓ keys lie at or below ``τ``, with no randomness.  This
  is Nowicki's regular sampling (PAPERS.md) with three samples per
  machine; the rank set is a fixed function of ``(k, ℓ)``;
* *ship and cut* (:func:`ship_and_cut`): every worker sends its count
  and its keys ``≤ τ``; the leader cuts the union at rank ℓ and
  broadcasts that key as the final boundary.

No sample, no safe-check round trip, no Algorithm 1 loop.  The middle
rank ``r₂ = min(⌈ℓ/k⌉, |S_i|)`` alone would already certify a bound
(one sample per machine), and the outer two can only move ``τ`` down:
on distinct distances no more keys ship than under that one-rank
rule, and where ``k·⌈ℓ/k⌉ = ℓ`` ``τ`` no longer has to wait for every
machine's report.  Because ``τ`` carries the largest id, every key
tied at its value ships too.  Each link still
carries at most ℓ ≤ ``sample_factor·⌈log₂ ℓ⌉`` keys plus four control
messages, so Theorem 2.4's ``O(log ℓ)`` rounds and ``O(k log ℓ)``
messages still hold.  A warm threshold runs only the ship-and-cut step
with ``τ`` set to it; if fewer than ℓ keys arrive, safe mode re-runs
the certificate and ``safe_mode=False`` returns the short answer.  The
sampled path stays above the regime, under Byzantine plans and for
``prune=False``: under adversarial placement a certified ``τ`` can let
ℓ keys per machine through, which only the regime's ``ℓ = O(log ℓ)``
keeps within the bill.

Failure handling: with probability ≤ 2/ℓ² the threshold ``r`` cuts
below the true ℓ-th neighbor and the output would be short.  With
``safe_mode=True`` the leader counts survivors before selecting (one
extra gather/broadcast pair) and, if fewer than ℓ survive, re-runs on
the unpruned ``S_i`` sets — turning the Monte Carlo guarantee into a
Las Vegas one for two extra rounds.  Benchmarks use
``safe_mode=False`` to measure the paper-faithful protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ..kmachine.byz import (
    ByzConfig,
    ByzantineError,
    confirmed_broadcast,
    gather_quorum,
    receive_confirmed,
    recv_upto,
    serve_gather,
    suspicions,
)
from ..kmachine.machine import MachineContext, Program
from ..points.dataset import Shard
from ..points.ids import MINUS_INF_KEY, PLUS_INF_KEY, Keyed
from ..points.metrics import Metric, get_metric
from .leader import elect
from .messages import decode_key, encode_key, log2_ceil, tag
from .selection import SelectionStats, _rank_leq, selection_subroutine

__all__ = [
    "KNNOutput",
    "KNNProgram",
    "exact_regime",
    "knn_output",
    "knn_subroutine",
    "local_candidates",
    "ship_and_cut",
]

_KEY_DTYPE = [("value", "f8"), ("id", "i8")]
_ID_MIN, _ID_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

#: Bytes of coordinates one scan block gathers from a shard that still
#: refers to its dataset (128 KiB): the block and the kernel's
#: difference temporary stay in L2.  256 KiB scanned no faster, and
#: 1 MiB blocks scanned about 3x slower (fresh pages on every call).
_SCAN_BLOCK_BYTES = 1 << 17


@dataclass
class KNNOutput:
    """Per-machine result of one distributed ℓ-NN query.

    The union over machines of ``ids`` is exactly the ℓ-NN ID set (the
    paper's output convention: "each machine outputs the points
    corresponding to the output of Algorithm 1").

    Attributes
    ----------
    ids / distances:
        This machine's locally-held answer points (ascending by
        (distance, id) within the machine).
    points / labels:
        The corresponding rows of the local shard (labels ``None`` for
        unlabelled data).
    boundary:
        Global (distance, id) acceptance threshold; identical on all
        machines.
    is_leader:
        Whether this machine ran the leader role.
    survivors:
        Global candidate count that entered the selection stage
        (leader only; the Lemma 2.3 quantity, ≤ 11ℓ w.h.p.).  In the
        exact regime: the keys shipped to the leader's cut.
    sampled:
        Number of sampled keys the leader based the threshold on
        (leader only; in the exact regime, the number of machines whose
        certificate report holds candidates).
    threshold:
        The broadcast pruning key ``r`` (leader only; ``None`` when
        pruning was disabled).
    fallback:
        True when safe mode detected an over-aggressive threshold and
        re-ran without pruning (leader only; w.h.p. False).
    selection_stats:
        Algorithm 1 statistics for the final stage (leader only).
    """

    ids: np.ndarray
    distances: np.ndarray
    points: np.ndarray
    labels: np.ndarray | None
    boundary: Keyed
    is_leader: bool
    survivors: int | None = None
    sampled: int | None = None
    threshold: Keyed | None = None
    fallback: bool = False
    selection_stats: SelectionStats | None = None


def local_candidates(
    shard: Shard, queries: np.ndarray, l: int, metric: Metric
) -> Any:
    """Stage-2 local pruning: the shard's ℓ closest points as sorted keys.

    ``queries`` is one query (shape ``(d,)``) or a block ``(m, d)``;
    the block shares one distance-kernel call, one row-wise
    ``np.argpartition`` and one row-wise ``np.lexsort`` of the
    ℓ-prefixes.  A shard that has not gathered its rows is scanned in
    place: :meth:`~repro.points.dataset.Shard.row_blocks` gathers
    ``_SCAN_BLOCK_BYTES`` of rows at a time into one reused buffer and
    the metric scans each block, so every distance is bit-identical to
    a scan of the gathered shard.  Per query the result is
    ``(keys, rows)``: ``keys`` is
    a structured ``(value, id)`` array of at most ℓ entries ascending
    by (value, id), and ``rows[i]`` is the shard row of ``keys[i]``.
    Every protocol selects its answer among these keys, so
    :func:`knn_output` maps answer ids back to shard rows through
    ``rows`` without indexing the whole shard.  Returns that pair for
    one query and a list of pairs, one per row, for a block.
    """
    single = np.ndim(queries) < 2
    n = len(shard)
    if n == 0:
        m = 1 if single else len(queries)
        pairs = [(np.empty(0, dtype=_KEY_DTYPE), np.empty(0, dtype=np.intp))] * m
        return pairs[0] if single else pairs
    dists = _scan(shard, queries, metric)
    m = len(dists)
    at = np.arange(m)[:, None]  # row index for per-row gathers
    if 0 < l < n:
        # Partition by distance, then resolve the tie block straddling
        # the l-th position by smallest ID — the global (value, id)
        # order must never be violated by local pruning.
        part = np.argpartition(dists, l - 1, axis=1)
        v_star = dists[at, part[:, l - 1 : l]]
        keep = dists <= v_star
        flat = np.flatnonzero(keep)
        if len(flat) > m * l:
            counts = np.bincount(flat // n, minlength=m)
            for i in np.flatnonzero(counts > l):
                tied = np.flatnonzero(dists[i] == v_star[i])
                need = l - (counts[i] - len(tied))
                drop = tied[np.argsort(shard.ids[tied], kind="stable")[need:]]
                keep[i, drop] = False
            flat = np.flatnonzero(keep)
        cols = (flat % n).reshape(m, l)
    else:
        cols = np.broadcast_to(np.arange(n, dtype=np.intp), (m, n))
    values = dists[at, cols]
    ids = shard.ids[cols]
    order = np.lexsort((ids, values), axis=1)
    rows = cols[at, order]
    keys = np.empty(rows.shape, dtype=_KEY_DTYPE)
    keys["value"] = values[at, order]
    keys["id"] = ids[at, order]
    return (keys[0], rows[0]) if single else list(zip(keys, rows))


def _scan(shard: Shard, queries: np.ndarray, metric: Metric) -> np.ndarray:
    """Distances from each query to every shard row, shape ``(m, n)``."""
    if shard.rows is None:
        return np.atleast_2d(metric.distances(shard.points, queries))
    dists = np.empty((1 if np.ndim(queries) < 2 else len(queries), len(shard)))
    for lo, block in shard.row_blocks(_SCAN_BLOCK_BYTES):
        dists[:, lo : lo + len(block)] = metric.distances(block, queries)
    return dists


def knn_output(
    shard: Shard,
    candidates: np.ndarray,
    rows: np.ndarray,
    selected: np.ndarray,
    boundary: Keyed,
    is_leader: bool,
    **fields,
) -> KNNOutput:
    """Assemble a machine's :class:`KNNOutput` from its selected keys.

    ``candidates`` / ``rows`` are this machine's :func:`local_candidates`
    output.  Every protocol selects ``keys[:rank]`` of an ascending
    prefix of ``candidates``, so ``selected`` must be a prefix of
    ``candidates`` and its shard rows are the matching prefix of
    ``rows``.  ``fields`` fill the remaining (leader-only) attributes.
    """
    ids = selected["id"].copy()
    if not np.array_equal(ids, candidates["id"][: len(ids)]):
        raise AssertionError("selected keys are not a prefix of the local candidates")
    pos = rows[: len(ids)]
    return KNNOutput(
        ids=ids,
        distances=selected["value"].copy(),
        points=shard.points_at(pos),
        labels=None if shard.labels is None else shard.labels[pos],
        boundary=boundary,
        is_leader=is_leader,
        **fields,
    )


def _pool_cutoff(
    remote: list[tuple[float, int]], mine: np.ndarray, cutoff: int
) -> tuple[Keyed | None, int]:
    """Stage-4 pick: the ``cutoff``-th smallest key of the leader's pool.

    The pool is the workers' decoded sample keys ``remote`` plus the
    leader's own sample rows ``mine``, held as one structured array and
    ordered by one ``np.lexsort``.  Returns ``(key, pool size)``; the
    key is the largest one when fewer than ``cutoff`` were sampled and
    ``None`` when the pool is empty.
    """
    pool = np.concatenate([np.array(remote, dtype=_KEY_DTYPE), mine])
    if not len(pool):
        return None, 0
    order = np.lexsort((pool["id"], pool["value"]))
    row = pool[order[min(cutoff, len(pool)) - 1]]
    return Keyed(row["value"], row["id"]), len(pool)


def _safe_check_byz(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    prefix: str,
    n_working: int,
    l: int,
) -> Generator[None, None, bool]:
    """Byzantine-hardened safe-mode check: quorum-gathered survivor
    counts, fallback verdict cross-confirmed among workers."""
    tracker = suspicions(ctx)
    t_cv, t_ce = tag(prefix, "scv"), tag(prefix, "sce")
    t_go, t_goc = tag(prefix, "go"), tag(prefix, "goc")
    if ctx.rank == leader:
        resolved = yield from gather_quorum(ctx, cfg, t_cv, t_ce, tracker)
        survivors = n_working
        for j, payload in resolved.items():
            try:
                survivors += max(0, int(payload))
            except (TypeError, ValueError):
                if payload is not None:
                    tracker.accuse(j, "malformed survivor count")
        fallback = bool(survivors < l)
        yield from confirmed_broadcast(ctx, cfg, t_go, fallback)
        return fallback
    yield from serve_gather(ctx, leader, cfg, t_cv, t_ce, int(n_working))
    verdict = yield from receive_confirmed(
        ctx, leader, cfg, t_go, t_goc, tracker,
        wait_rounds=cfg.op_budget(ctx.k),
    )
    return bool(verdict)


def _safe_check(
    ctx: MachineContext,
    leader: int,
    prefix: str,
    n_working: int,
    l: int,
    timeout_rounds: int | None,
    byz: ByzConfig | None,
) -> Generator[None, None, bool]:
    """Safe mode: did at least ``l`` candidates survive the prune?

    One survivor-count gather and one go/no-go broadcast; returns the
    fallback verdict (True: re-run on the unpruned candidates).
    """
    with ctx.obs.span("safe-check"):
        if byz is not None:
            return (yield from _safe_check_byz(ctx, leader, byz, prefix, n_working, l))
        t_scount = tag(prefix, "scount")
        t_go = tag(prefix, "go")
        if ctx.rank == leader:
            msgs = yield from ctx.recv(t_scount, ctx.k - 1, max_rounds=timeout_rounds)
            fallback = n_working + sum(m.payload for m in msgs) < l
            ctx.broadcast(t_go, fallback)
            yield
            return fallback
        else:
            ctx.send(leader, t_scount, n_working)
            msg = yield from ctx.recv_one(t_go, src=leader, max_rounds=timeout_rounds)
            return bool(msg.payload)


def exact_regime(l: int, sample_factor: int = 12) -> bool:
    """Whether stage 3's sample would already hold every candidate.

    A machine keeps at most ``l`` candidates and would send
    ``sample_factor·⌈log₂ l⌉`` samples; when that is at least ``l``
    (every ``l <= 84`` at the default 12) :func:`knn_subroutine`
    replaces stages 3–6 with :func:`_certify` and :func:`ship_and_cut`.
    """
    return l <= sample_factor * max(1, log2_ceil(l))


def _report_ranks(l: int, k: int, size: int) -> list[int]:
    """The certificate's local ranks ``min(⌈j·l/2k⌉, size)``, j = 1, 2, 3.

    A fixed function of ``(l, k)`` and a machine's candidate count, so
    the leader recomputes every machine's ranks from its reported size.
    """
    return [min(-(-j * l // (2 * k)), size) for j in (1, 2, 3)]


def _certify(
    ctx: MachineContext,
    leader: int,
    keys: np.ndarray,
    l: int,
    *,
    prefix: str,
    timeout_rounds: int | None = None,
) -> Generator[None, None, tuple[Keyed, int | None]]:
    """Regular-sampling certificate: a bound with ≥ ``l`` keys at or below it.

    Machine ``i`` sends one report ``(|S_i|, v₁, v₂, v₃)``: ``v_j`` is
    the distance value of its key at local rank ``r_j = min(⌈j·l/2k⌉,
    |S_i|)`` (:func:`_report_ranks`), so it holds at least ``r_j`` keys
    at or below ``(v_j, max id)``.  The leader walks every report in
    value order, keeps each machine's largest rank reached so far, and
    broadcasts ``τ = (v, max id)`` at the first report where those
    ranks sum to ``l`` — or +∞ when they never do.  Returns
    ``(τ, reports)``; the report count is the number of machines
    holding candidates, known to the leader only (``None`` on workers).
    """
    t_cert = tag(prefix, "cert")
    t_tau = tag(prefix, "tau")
    size = len(keys)
    mine = (size, *(
        float(keys["value"][rank - 1]) if rank else PLUS_INF_KEY.value
        for rank in _report_ranks(l, ctx.k, size)
    ))
    if ctx.rank == leader:
        with ctx.obs.span("sampling"):
            msgs = yield from ctx.recv(t_cert, ctx.k - 1, max_rounds=timeout_rounds)
            held: list[tuple[Any, ...]] = [mine] + [m.payload for m in msgs]
            # Within a machine both value and rank ascend with j, so in
            # (value, rank) order each report raises its machine's rank.
            reports = sorted(
                (value, rank, machine)
                for machine, (count, *values) in enumerate(held)
                if count
                for value, rank in zip(values, _report_ranks(l, ctx.k, count))
            )
        with ctx.obs.span("threshold"):
            if not reports:
                raise ValueError("no machine holds any point; cannot answer query")
            tau = PLUS_INF_KEY
            reached = [0] * len(held)
            total = 0
            for value, rank, machine in reports:
                total += rank - reached[machine]
                reached[machine] = rank
                if total >= l:
                    tau = Keyed(value, PLUS_INF_KEY.id)
                    break
            ctx.broadcast(t_tau, encode_key(tau))
            yield  # the broadcast's round (nothing can arrive sooner)
        return tau, sum(1 for count, *_ in held if count)
    else:
        with ctx.obs.span("sampling"):
            ctx.send(leader, t_cert, mine)
            yield  # the report's round (the bound cannot arrive sooner)
        with ctx.obs.span("threshold"):
            msg = yield from ctx.recv_one(t_tau, src=leader, max_rounds=timeout_rounds)
        return decode_key(msg.payload), None


def ship_and_cut(
    ctx: MachineContext,
    leader: int,
    keys: np.ndarray,
    l: int,
    *,
    bound: Keyed = PLUS_INF_KEY,
    pace: bool = False,
    repair: bool = False,
    prefix: str,
    timeout_rounds: int | None = None,
) -> Generator[None, None, tuple[Keyed | None, int | None]]:
    """Gather every machine's keys ``<= bound`` and cut them at rank ``l``.

    ``keys`` is this machine's sorted candidate array.  Each worker
    sends its count of keys ``<= bound``, then those keys one
    ``(value, id)`` per message (bursting them into the link queue, or
    one per round with ``pace=True``), and waits for the verdict.  The
    leader merges the union with its own keys and broadcasts the
    ``l``-th smallest — the largest when fewer arrived, ``MINUS_INF_KEY``
    when none did — as the global boundary.  With ``repair=True`` a
    union short of ``l`` keys means ``bound`` was unsafe: the leader
    broadcasts ``None`` instead and every machine returns ``None``, so
    the caller can re-run without the bound.

    The simple method calls this with ``bound`` = +∞;
    :func:`knn_subroutine` calls it with a certified or carried bound.
    Returns ``(boundary, union size)``; the size is the leader's
    (``None`` on workers).
    """
    t_count = tag(prefix, "n")
    t_cand = tag(prefix, "cand")
    t_done = tag(prefix, "done")
    mine = keys[: _rank_leq(keys, bound)]
    if ctx.rank == leader:
        with ctx.obs.span("gather"):
            count_msgs = yield from ctx.recv(t_count, ctx.k - 1, max_rounds=timeout_rounds)
            expected = sum(m.payload for m in count_msgs)
            cand_msgs = yield from ctx.recv(t_cand, expected, max_rounds=timeout_rounds)
        with ctx.obs.span("merge"):
            merged = np.concatenate(
                [np.array([m.payload for m in cand_msgs], dtype=_KEY_DTYPE), mine]
            )
            merged.sort(order=("value", "id"))
            size = len(merged)
            boundary: Keyed | None
            if repair and size < l:
                boundary = None
            elif size:
                row = merged[min(l, size) - 1]
                boundary = Keyed(float(row["value"]), int(row["id"]))
            else:
                boundary = MINUS_INF_KEY
        with ctx.obs.span("boundary"):
            ctx.broadcast(t_done, None if boundary is None else encode_key(boundary))
            yield
        return boundary, size
    else:
        # The count and the keys share the machine->leader link, so the
        # bandwidth queue charges one round per link-load of keys.
        with ctx.obs.span("ship-candidates"):
            ctx.send(leader, t_count, len(mine))
            if pace:
                yield
            # |mine| <= l, and Algorithm 2 ships only where
            # l <= sample_factor*log l (exact_regime).
            # lint: bound[log] — at most sample_factor*log l keys per link
            for pair in mine.tolist():  # (value, id): encode_key's wire form
                ctx.send(leader, t_cand, pair)
                if pace:
                    yield
        with ctx.obs.span("boundary"):
            msg = yield from ctx.recv_one(t_done, src=leader, max_rounds=timeout_rounds)
        return (None if msg.payload is None else decode_key(msg.payload)), None


def knn_subroutine(
    ctx: MachineContext,
    leader: int,
    shard: Shard,
    query: np.ndarray,
    l: int,
    metric: Metric,
    *,
    sample_factor: int = 12,
    cutoff_factor: int = 21,
    safe_mode: bool = True,
    prune: bool = True,
    threshold: Keyed | None = None,
    pace_samples: bool = False,
    prefix: str = "knn",
    timeout_rounds: int | None = None,
    byz: ByzConfig | None = None,
    local_pruned: tuple[np.ndarray, np.ndarray] | None = None,
) -> Generator[None, None, KNNOutput]:
    """Run Algorithm 2 as an embeddable subroutine (see module docs).

    ``prune=False`` skips stages 3–5 entirely and runs Algorithm 1
    directly on the ``S_i`` sets — the ``O(log ℓ + log k)``-round
    variant the paper mentions before introducing sampling; kept as an
    ablation arm.

    In the exact regime (:func:`exact_regime`; plain mode, ``prune``,
    ``k > 1``) stages 3–6 are the certificate and ship-and-cut steps of
    the module docs.

    ``threshold`` (a distance key every machine already knows, e.g. a
    triangle-inequality bound carried over from a previous query by
    :class:`repro.core.monitor.MovingKNNMonitor`) replaces the
    sampling stages entirely: machines prune to keys ≤ ``threshold``
    and selection runs on the survivors (in the exact regime: the
    leader cuts their union).  The caller is responsible for the
    threshold being *safe* (at least ℓ global keys below it);
    ``safe_mode`` still verifies and repairs if it is not.

    ``pace_samples=True`` sends one sample (in the exact regime: one
    shipped key) per link per round instead of bursting them into the
    link queue — the literal reading of the paper's "step 4 takes
    O(log ℓ) rounds", and the mode that runs under the simulator's
    ``strict`` bandwidth policy (each link then carries exactly one
    O(log n)-bit message per round).  Rounds and messages are
    asymptotically identical either way; bursting simply lets a wider
    ``B`` pack several samples per round.

    ``timeout_rounds`` bounds every protocol receive (missed-heartbeat
    failure detection; see
    :func:`repro.core.selection.selection_subroutine`).

    ``byz`` enables Byzantine hardening (see
    :mod:`repro.kmachine.byz`): the threshold and go/no-go broadcasts
    are cross-confirmed among workers, survivor counts travel through
    quorum-verified gathers, the sample gather tolerates silence, and
    the final selection runs its hardened protocol.  Requires
    ``safe_mode`` — the fallback re-run is the liveness half of the
    exactness argument (a forged-too-low threshold must trigger the
    unpruned path rather than a short answer).

    ``local_pruned`` is this machine's stage-2 output ``(keys, rows)``
    for ``query``, when the caller already computed it with
    :func:`local_candidates` (a served micro-batch prunes all its
    queries in one block call); ``None`` computes it here.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if sample_factor < 1 or cutoff_factor < 1:
        raise ValueError("sample_factor and cutoff_factor must be >= 1")
    if byz is not None:
        if not safe_mode:
            raise ValueError("byzantine hardening requires safe_mode=True")
        if ctx.k > 1:
            byz.validate(ctx.k)
    query = np.atleast_1d(np.asarray(query, dtype=np.float64))

    # Stage 2: local pruning to the l closest points (free, local).
    if local_pruned is None:
        with ctx.obs.span("local-prune"):
            local_pruned = local_candidates(shard, query, l, metric)
    candidates, rows = local_pruned
    working = candidates
    external_threshold = threshold
    threshold = None  # the threshold actually applied (reported in output)
    sampled_total: int | None = None
    fallback = False
    is_leader = ctx.rank == leader

    if byz is None and prune and ctx.k > 1 and exact_regime(l, sample_factor):
        # Stages 3-6 collapse to the exact protocol: a warm bound goes
        # straight to ship-and-cut; a cold query (or an unsafe warm
        # bound under safe mode) certifies a bound first.
        bound = external_threshold
        boundary: Keyed | None = None
        survivors: int | None = None
        if bound is not None:
            boundary, survivors = yield from ship_and_cut(
                ctx, leader, candidates, l, bound=bound, pace=pace_samples,
                repair=safe_mode and bound.value < np.inf,
                prefix=prefix, timeout_rounds=timeout_rounds,
            )
            fallback = boundary is None
        if boundary is None:
            sub = tag(prefix, "fb") if fallback else prefix
            bound, sampled_total = yield from _certify(
                ctx, leader, candidates, l, prefix=sub, timeout_rounds=timeout_rounds
            )
            boundary, survivors = yield from ship_and_cut(
                ctx, leader, candidates, l, bound=bound, pace=pace_samples,
                prefix=sub, timeout_rounds=timeout_rounds,
            )
        return knn_output(
            shard,
            candidates,
            rows,
            candidates[: _rank_leq(candidates, boundary)],
            boundary,
            is_leader,
            survivors=survivors,
            sampled=sampled_total,
            threshold=bound,
            fallback=fallback,
        )

    if external_threshold is not None and ctx.k > 1:
        # Externally supplied pruning bound: skip sampling entirely.
        threshold = external_threshold
        working = candidates[: _rank_leq(candidates, threshold)]
        if safe_mode:
            fallback = yield from _safe_check(
                ctx, leader, prefix, len(working), l, timeout_rounds, byz
            )
            if fallback:
                working = candidates
    elif prune and ctx.k > 1:
        log_l = max(1, log2_ceil(l))
        n_samples = sample_factor * log_l
        cutoff = cutoff_factor * log_l
        t_sample = tag(prefix, "sample")
        t_thresh = tag(prefix, "thresh")

        # Stage 3: every machine emits exactly `n_samples` messages
        # (sample keys, padded with None sentinels), so the leader's
        # receive count is deterministic.  The leader's span covers its
        # gather of those samples — the rounds the whole system spends
        # shipping them.
        pool_key: Keyed | None = None
        with ctx.obs.span("sampling"):
            if len(candidates) > n_samples:
                idx = ctx.rng.choice(len(candidates), size=n_samples, replace=False)
                my_samples = candidates[np.sort(idx)]
            else:
                my_samples = candidates
            if is_leader and byz is not None:
                # Hardened gather: tolerate silent liars (take what
                # arrives within the op budget), discard strays and
                # malformed/non-finite keys.  A forged sample can only
                # bias the threshold; safe mode repairs a too-low r and
                # a too-high r merely weakens pruning — exactness never
                # depends on the samples.
                tracker = suspicions(ctx)
                workers = byz.workers(ctx.k, leader)
                msgs = yield from recv_upto(
                    ctx,
                    t_sample,
                    len(workers) * n_samples,
                    byz.timeout_rounds,
                    allowed=set(workers),
                )
                remote = []
                for m in msgs:
                    if m.payload is None:
                        continue
                    try:
                        key = decode_key(m.payload)
                        if not _ID_MIN <= key.id <= _ID_MAX:
                            raise ValueError("sample id outside int64")
                    except (TypeError, ValueError, IndexError):
                        tracker.accuse(m.src, "malformed sample key")
                        continue
                    if np.isfinite(key.value):
                        remote.append(key.as_tuple())
                pool_key, sampled_total = _pool_cutoff(remote, my_samples, cutoff)
            elif is_leader:
                msgs = yield from ctx.recv(
                    t_sample, (ctx.k - 1) * n_samples, max_rounds=timeout_rounds
                )
                pool_key, sampled_total = _pool_cutoff(
                    [m.payload for m in msgs if m.payload is not None], my_samples, cutoff
                )
            else:
                # lint: bound[log] — |my_samples| <= n_samples = O(log l)
                for pair in my_samples.tolist():  # (value, id): encode_key's wire form
                    ctx.send(leader, t_sample, pair)
                    if pace_samples:
                        yield
                # lint: bound[log] — pads the emission count to n_samples
                for _ in range(n_samples - len(my_samples)):
                    ctx.send(leader, t_sample, None)
                    if pace_samples:
                        yield

        # Stage 4: leader picks the threshold r and broadcasts it.
        with ctx.obs.span("threshold"):
            if is_leader and byz is not None:
                # All samples silenced/forged away and the leader holds
                # nothing: prune nothing rather than abort.
                threshold = pool_key if pool_key is not None else PLUS_INF_KEY
                yield from confirmed_broadcast(
                    ctx, byz, t_thresh, encode_key(threshold)
                )
            elif is_leader:
                if pool_key is None:
                    raise ValueError(
                        "no machine holds any point; cannot answer query"
                    )
                threshold = pool_key
                ctx.broadcast(t_thresh, encode_key(threshold))
                yield
            elif byz is not None:
                tracker = suspicions(ctx)
                wire = yield from receive_confirmed(
                    ctx, leader, byz, t_thresh, tag(prefix, "threshc"), tracker,
                    wait_rounds=byz.op_budget(ctx.k),
                )
                try:
                    threshold = decode_key(wire)
                    if np.isnan(threshold.value):
                        raise ValueError("NaN threshold")
                except (TypeError, ValueError, IndexError):
                    raise ByzantineError(
                        f"machine {ctx.rank}: leader {leader} broadcast a "
                        f"malformed threshold",
                        suspects=(leader,),
                    ) from None
            else:
                msg = yield from ctx.recv_one(
                    t_thresh, src=leader, max_rounds=timeout_rounds
                )
                threshold = decode_key(msg.payload)

        # Stage 5: prune everything above r.
        working = candidates[: _rank_leq(candidates, threshold)]

        # Safe mode: verify >= l candidates survived before selecting.
        if safe_mode:
            fallback = yield from _safe_check(
                ctx, leader, prefix, len(working), l, timeout_rounds, byz
            )
            if fallback:
                working = candidates

    # Stage 6: Algorithm 1 on the surviving distance keys.
    with ctx.obs.span("selection"):
        sel = yield from selection_subroutine(
            ctx, leader, working, l, prefix=tag(prefix, "sel"),
            timeout_rounds=timeout_rounds, byz=byz,
        )

    return knn_output(
        shard,
        candidates,
        rows,
        sel.selected,
        sel.boundary,
        is_leader,
        survivors=sel.stats.initial_count if sel.stats is not None else None,
        sampled=sampled_total,
        threshold=threshold,
        fallback=fallback,
        selection_stats=sel.stats,
    )


class KNNProgram(Program):
    """Standalone SPMD wrapper for Algorithm 2.

    Machine-local input (``ctx.local``) is a
    :class:`~repro.points.dataset.Shard`; the query, ℓ and metric are
    program configuration because the paper gives the query to all
    machines up front.  Per-machine output is a :class:`KNNOutput`.

    Parameters
    ----------
    query:
        The query point (scalar or length-d vector).
    l:
        Number of neighbors.
    metric:
        Metric name or instance (default Euclidean).
    election:
        Leader-election strategy (``fixed``/``min_id``/``sublinear``).
    sample_factor / cutoff_factor / safe_mode / prune:
        Passed to :func:`knn_subroutine`.
    """

    name = "algorithm2-knn"

    def __init__(
        self,
        query: np.ndarray | float,
        l: int,
        metric: Metric | str = "euclidean",
        election: str = "fixed",
        *,
        sample_factor: int = 12,
        cutoff_factor: int = 21,
        safe_mode: bool = True,
        prune: bool = True,
        threshold: Keyed | None = None,
        pace_samples: bool = False,
        timeout_rounds: int | None = None,
        byz: ByzConfig | None = None,
    ) -> None:
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        if sample_factor < 1 or cutoff_factor < 1:
            raise ValueError("sample_factor and cutoff_factor must be >= 1")
        self.query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        self.l = l
        self.metric = get_metric(metric)
        self.election = election
        self.sample_factor = sample_factor
        self.cutoff_factor = cutoff_factor
        self.safe_mode = safe_mode
        self.prune = prune
        self.threshold = threshold
        self.pace_samples = pace_samples
        self.timeout_rounds = timeout_rounds
        self.byz = byz

    def run(self, ctx: MachineContext) -> Generator[None, None, KNNOutput]:
        leader = yield from elect(ctx, method=self.election, byz=self.byz)
        shard: Shard = ctx.local
        if shard is None:
            shard = Shard(points=np.empty((0, len(self.query))), ids=np.empty(0, np.int64))
        output = yield from knn_subroutine(
            ctx,
            leader,
            shard,
            self.query,
            self.l,
            self.metric,
            sample_factor=self.sample_factor,
            cutoff_factor=self.cutoff_factor,
            safe_mode=self.safe_mode,
            prune=self.prune,
            threshold=self.threshold,
            pace_samples=self.pace_samples,
            timeout_rounds=self.timeout_rounds,
            byz=self.byz,
        )
        return output
