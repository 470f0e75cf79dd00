"""The serving facade: :class:`KNNService` and its asyncio front end.

Glue layer tying the subsystem together: a persistent
:class:`~repro.serve.session.ClusterSession` (protocol substrate), an
:class:`~repro.serve.scheduler.AdmissionQueue` +
:class:`~repro.serve.scheduler.MicroBatcher` (admission control), a
:class:`~repro.serve.cache.ResultCache` (exact hits + warm starts) and
:class:`~repro.serve.stats.ServiceStats` (per-query accounting).

Life of a query:

1. :meth:`KNNService.submit` advances the service clock, checks the
   exact cache (a byte-identical repeat is answered immediately in 0
   protocol rounds), otherwise admits a ticket — raising
   :class:`~repro.serve.scheduler.QueueFullError` backpressure when
   the queue is at depth (or flushing a batch first, with
   ``on_full="flush"``).
2. When the micro-batcher declares readiness (batch full, window
   expired, or a deadline near), the service dispatches: each batched
   ticket gets a warm-start threshold from the cache if a safe one
   exists, and the whole batch runs as *one* concurrent session
   episode (tag namespace ``bq/<qid>``).
3. Answers are filed for :meth:`KNNService.poll`, stored back into
   both cache tiers, and recorded in the stats.

Live data (:mod:`repro.dyn`): :meth:`KNNService.insert` and
:meth:`KNNService.delete` first flush pending queries — every admitted
query is answered at the epoch it was submitted in — then run one
update episode on the session and sync the cache through the epoch
transition (:func:`repro.dyn.epochs.sync_cache_epoch`).  The session
auto-rebalances when the imbalance monitor trips, transparently to
callers.

The service clock is an abstract monotone float supplied by the caller
(``submit(..., at=t)``, :meth:`advance`) — workload time, not wall
time — so every scheduling decision is reproducible.
:class:`AsyncKNNService` bridges to real ``asyncio`` callers by
flushing pending batches from a wall-clock timer instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..core.driver import DEFAULT_BANDWIDTH_BITS
from ..core.messages import tag
from ..dyn.epochs import sync_cache_epoch
from ..kmachine.metrics import Metrics
from ..points.dataset import Dataset
from ..points.ids import Keyed
from ..points.metrics import Metric
from .cache import CachedAnswer, ResultCache
from .scheduler import AdmissionQueue, MicroBatcher, QueueFullError, Ticket
from .session import ClusterSession, QueryJob
from .stats import QueryRecord, ServiceStats
from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

__all__ = ["Answer", "AsyncKNNService", "KNNService"]


@dataclass
class Answer:
    """What :meth:`KNNService.poll` hands back for one query."""

    qid: int
    ids: np.ndarray
    distances: np.ndarray
    labels: np.ndarray | None
    boundary: Keyed
    #: how the query was satisfied: "cold" | "warm" | "cache" | "approx"
    source: str
    record: QueryRecord
    #: approximate-path answers only: provably exact? (``None`` on the
    #: exact path; see :meth:`repro.serve.approx.RoutingTable.certify`)
    certified: bool | None = None


class KNNService:
    """Online ℓ-NN serving over a resident simulated cluster.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> service = KNNService(rng.uniform(0, 1, (2000, 2)), l=8, k=4, seed=7)
    >>> qid = service.submit(np.array([0.5, 0.5]))
    >>> answer = service.drain()[qid]
    >>> len(answer.ids)
    8
    """

    def __init__(
        self,
        points: np.ndarray | Dataset,
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
        window: float = 4.0,
        max_batch: int = 8,
        max_depth: int = 64,
        policy: str = "fifo",
        max_wait: float | None = None,
        on_full: str = "reject",
        exact_cache: bool = True,
        warm_start: bool = True,
        cache_capacity: int = 512,
        warm_capacity: int = 256,
        max_delta_factor: float = 1.0,
        max_blowup: float = 8.0,
        observe: str = "off",
        balance_threshold: float = 2.0,
        auto_rebalance: bool = True,
        byzantine=None,
        byzantine_f: int | None = None,
        byzantine_timeout_rounds: int = 32,
        backend: str = "sim",
        net_options=None,
        approx: bool = False,
        approx_fanout: int = 2,
        approx_centers: int | None = None,
    ) -> None:
        if on_full not in ("reject", "flush"):
            raise ValueError("on_full must be 'reject' or 'flush'")
        if approx and approx_fanout < 1:
            raise ValueError("approx_fanout must be >= 1")
        if approx and partitioner == "random":
            # Approximate routing only prunes machines when each cluster
            # lives on few of them; under the default random placement
            # every machine holds every cluster and a small fan-out
            # caps recall at roughly fanout/k.  Name a partitioner
            # explicitly to override.
            partitioner = "locality"
        self.session = ClusterSession(
            points,
            l,
            k,
            labels=labels,
            metric=metric,
            seed=seed,
            bandwidth_bits=bandwidth_bits,
            election=election,
            partitioner=partitioner,
            safe_mode=safe_mode,
            observe=observe,
            balance_threshold=balance_threshold,
            auto_rebalance=auto_rebalance,
            byzantine=byzantine,
            byzantine_f=byzantine_f,
            byzantine_timeout_rounds=byzantine_timeout_rounds,
            backend=backend,
            net_options=net_options,
        )
        self.queue = AdmissionQueue(max_depth=max_depth)
        self.batcher = MicroBatcher(
            window=window, max_batch=max_batch, policy=policy, max_wait=max_wait
        )
        self.cache: ResultCache | None = (
            ResultCache(
                self.session.metric,
                l=l,
                exact_capacity=cache_capacity,
                warm_capacity=warm_capacity,
                max_delta_factor=max_delta_factor,
                max_blowup=max_blowup,
                exact=exact_cache,
                warm=warm_start,
            )
            if (exact_cache or warm_start)
            else None
        )
        # Opt-in approximate serving (see DESIGN.md §14): one clustering
        # episode builds the routing table up front, and every dispatch
        # goes through the routed path.  ``approx=False`` (the default)
        # leaves the exact path byte-identical.
        self.approx = bool(approx)
        self.approx_fanout = approx_fanout
        if self.approx:
            self.session.cluster_corpus(approx_centers)
        self.stats = ServiceStats()
        #: how many of ``session.mutations`` the stats counters include
        self._mutations_synced = 0
        self.on_full = on_full
        self.clock = 0.0
        self.closed = False
        self._next_qid = 0
        self._results: dict[int, Answer] = {}

    # -- submission ----------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        *,
        at: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Admit one query; returns its ``qid`` (see module docs).

        ``at`` advances the service clock (monotone; earlier times are
        clamped); batches whose window expired by then dispatch first,
        preserving arrival order across the clock jump.
        """
        if self.closed:
            raise RuntimeError("service is closed")
        if at is not None:
            self.advance(at)
        query = np.atleast_1d(np.asarray(query, dtype=np.float64))
        if query.shape[0] != self.session.dataset.dim:
            raise ValueError(
                f"query dim {query.shape[0]} != corpus dim {self.session.dataset.dim}"
            )
        qid = self._next_qid
        self._next_qid += 1
        self.stats.submitted += 1
        if self.cache is not None:
            started = perf_counter()
            cached = self.cache.exact_get(query)
            if cached is not None:
                self._complete_from_cache(qid, cached, started, deadline)
                return qid
        ticket = Ticket(qid=qid, query=query, arrival=self.clock, deadline=deadline)
        try:
            self.queue.push(ticket)
        except QueueFullError:
            if self.on_full == "reject":
                self.stats.rejected += 1
                raise
            self._dispatch(force=True)
            self.queue.push(ticket)
        while self.batcher.ready(self.queue, self.clock):
            self._dispatch()
        return qid

    def advance(self, to: float) -> None:
        """Move the service clock forward, dispatching expired windows."""
        self.clock = max(self.clock, float(to))
        while self.batcher.ready(self.queue, self.clock):
            self._dispatch()

    # -- live data -----------------------------------------------------
    def insert(
        self, points: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Insert live points; returns their assigned ids.

        Pending queries are flushed first so every already-admitted
        query is answered at the epoch it was submitted in, then one
        update episode runs and the cache advances through the epoch
        transition.  The warm-start tier survives (inserts cannot make
        a stored radius unsafe); the exact tier is invalidated.
        """
        if self.closed:
            raise RuntimeError("service is closed")
        self.flush()
        ids = self.session.insert(points, labels)
        self._after_mutation()
        self.stats.inserted += len(ids)
        return ids

    def delete(self, ids: "np.ndarray | list[int]") -> int:
        """Delete live points by id; returns the number removed.

        Pending queries are flushed first (see :meth:`insert`); the
        epoch transition then clears *both* cache tiers — after a
        delete, a stored radius may no longer contain ℓ points.
        """
        if self.closed:
            raise RuntimeError("service is closed")
        self.flush()
        removed = self.session.delete(ids)
        self._after_mutation()
        self.stats.deleted += removed
        return removed

    def rebalance(self):
        """Force one rebalance episode (normally automatic); returns its record.

        No epoch change: placement moved, the point set did not, so
        cached answers stay valid.
        """
        if self.closed:
            raise RuntimeError("service is closed")
        self.flush()
        record = self.session.rebalance()
        self._after_mutation()
        return record

    def _after_mutation(self) -> None:
        """Sync the cache epoch and the mutation counters to the session."""
        if self.cache is not None:
            sync_cache_epoch(self.cache, self.session.epoch_log)
        # Fold in only the records appended since the last sync (an
        # update may append an auto-rebalance after itself), so a write
        # costs the same however long the service has run.
        log = self.session.mutations
        for record in log[self._mutations_synced:]:
            if record.kind == "update":
                self.stats.mutations += 1
            elif record.kind == "rebalance":
                self.stats.rebalances += 1
        self._mutations_synced = len(log)

    # -- retrieval -----------------------------------------------------
    def poll(self, qid: int) -> Answer | None:
        """The answer for ``qid`` if it completed, else ``None``."""
        return self._results.get(qid)

    def flush(self) -> None:
        """Dispatch everything queued, ignoring window/readiness."""
        while self.queue:
            self._dispatch(force=True)

    def drain(self) -> dict[int, Answer]:
        """Flush the queue and return every completed answer by qid."""
        self.flush()
        return dict(self._results)

    def close(self) -> dict[int, Answer]:
        """Drain, close the session, and return all answers."""
        if self.closed:
            return dict(self._results)
        answers = self.drain()
        self.session.close()
        self.closed = True
        return answers

    def __enter__(self) -> "KNNService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- accounting ----------------------------------------------------
    @property
    def metrics(self) -> Metrics:
        """Session-cumulative protocol metrics."""
        return self.session.metrics

    def stats_report(self) -> dict:
        """JSON-ready aggregate report (syncs queue/batch counters).

        On a service observed at ``"profile"`` or above the report carries
        ``leader_ingest`` (hot machine, its share of all message
        arrivals, the full per-machine ingress map) and
        ``critical_path`` (the top modelled-time segments from
        :meth:`~repro.serve.session.ClusterSession.cost_profile`) —
        the two session-level signals the hierarchical-aggregation
        work is gated on.
        """
        self.stats.queue_high_water = self.queue.high_water
        self.stats.batches = self.session.batches
        report = self.stats.to_dict(total_rounds=self.session.rounds)
        if self.session.profile:
            prof = self.session.cost_profile()
            hot = self.session.metrics.hot_ingress()
            report["leader_ingest"] = {
                "machine": None if hot is None else hot[0],
                "messages": None if hot is None else hot[1],
                "share": prof.leader_ingest_share(),
                "ingress": {
                    str(r): n
                    for r, n in sorted(prof.ingress_by_machine().items())
                },
            }
            report["critical_path"] = [
                seg.to_dict() for seg in prof.top_segments()
            ]
        return report

    def summary(self) -> str:
        """Human-readable stats summary."""
        self.stats.queue_high_water = self.queue.high_water
        self.stats.batches = self.session.batches
        return self.stats.summary(total_rounds=self.session.rounds)

    # -- internals -----------------------------------------------------
    def _complete_from_cache(
        self,
        qid: int,
        cached: CachedAnswer,
        started: float,
        deadline: float | None,
    ) -> None:
        now_round = self.session.rounds
        self.session.mark(tag("serve", "cache-hit", qid))
        record = QueryRecord(
            qid=qid,
            source="cache",
            arrival=self.clock,
            dispatch_time=self.clock,
            batch_index=None,
            batch_size=0,
            dispatch_round=now_round,
            complete_round=now_round,
            messages=0,
            survivors=None,
            fallback=False,
            deadline=deadline,
            wall_seconds=perf_counter() - started,
            epoch=cached.epoch,
        )
        self.stats.record(record)
        self._results[qid] = Answer(
            qid=qid,
            ids=cached.ids.copy(),
            distances=cached.distances.copy(),
            labels=None if cached.labels is None else cached.labels.copy(),
            boundary=cached.boundary,
            source="cache",
            record=record,
        )

    def _dispatch(self, force: bool = False) -> None:
        if not force and not self.batcher.ready(self.queue, self.clock):
            return
        batch = self.batcher.select(self.queue, self.clock)
        if not batch:
            return
        started = perf_counter()
        jobs = []
        for ticket in batch:
            # Warm-start thresholds are an exact-path device (they prune
            # while preserving exactness); the approximate path has its
            # own pruning — the routing table.
            threshold = (
                self.cache.warm_suggest(ticket.qid, ticket.query)
                if self.cache is not None and not self.approx
                else None
            )
            jobs.append(
                QueryJob(qid=ticket.qid, query=ticket.query, threshold=threshold)
            )
        batch_index = self.session.batches
        dispatch_round = self.session.rounds
        epoch = self.session.data_epoch
        if self.approx:
            answers = self.session.run_approx_batch(
                jobs, fanout=self.approx_fanout
            )
        else:
            answers = self.session.run_batch(jobs)
        wall = perf_counter() - started
        for ticket, served in zip(batch, answers):
            if self.approx:
                source = "approx"
            else:
                source = "warm" if served.warm_started else "cold"
            record = QueryRecord(
                qid=ticket.qid,
                source=source,
                arrival=ticket.arrival,
                dispatch_time=self.clock,
                batch_index=batch_index,
                batch_size=len(batch),
                dispatch_round=dispatch_round,
                complete_round=served.complete_round,
                messages=served.messages,
                survivors=served.survivors,
                fallback=served.fallback,
                deadline=ticket.deadline,
                wall_seconds=wall / len(batch),
                epoch=epoch,
            )
            self.stats.record(record)
            self._results[ticket.qid] = Answer(
                qid=ticket.qid,
                ids=served.ids,
                distances=served.distances,
                labels=served.labels,
                boundary=served.boundary,
                source=source,
                record=record,
                certified=served.certified,
            )
            if self.cache is not None and not self.approx:
                # Approximate answers never enter the cache tiers: an
                # uncertified answer stored as "exact" would silently
                # upgrade later repeats to a wrong exact hit.
                self.cache.store(
                    ticket.qid,
                    CachedAnswer(
                        query=ticket.query,
                        ids=served.ids,
                        distances=served.distances,
                        labels=served.labels,
                        boundary=served.boundary,
                        epoch=epoch,
                    ),
                    survivors=served.survivors,
                    warm_started=served.warm_started,
                )

    # -- convenience ---------------------------------------------------
    def replay(self, workload: Workload) -> dict[int, Answer]:
        """Serve a whole :class:`~repro.serve.workload.Workload`.

        Submits every event at its arrival time (advancing the service
        clock, so batching windows behave as they would live), then
        drains.  Returns answers keyed by qid, in submission order ==
        event order.
        """
        for event in workload:
            self.submit(event.query, at=event.time, deadline=event.deadline)
        return self.drain()


class AsyncKNNService:
    """``asyncio`` front end over a (synchronous) :class:`KNNService`.

    The wrapped service's clock is workload time, which an asyncio
    caller does not have — so batching is bridged to wall time: a
    submitted query whose batch is not yet full is dispatched by a
    ``flush_interval``-second timer instead of a clock window.  All
    protocol work still runs synchronously on the event-loop thread
    (the simulator is single-threaded by design); concurrency here is
    about *callers* overlapping waits, mirroring how the micro-batcher
    overlaps their queries' rounds.

    Example
    -------
    ``answers = await asyncio.gather(*(svc.query(q) for q in queries))``
    coalesces all the queries into micro-batches.
    """

    def __init__(self, service: KNNService, *, flush_interval: float = 0.01) -> None:
        self.service = service
        self.flush_interval = flush_interval
        self._waiters: dict[int, asyncio.Future] = {}
        self._timer: asyncio.TimerHandle | None = None

    async def query(
        self, query: np.ndarray, *, deadline: float | None = None
    ) -> Answer:
        """Submit one query and await its answer."""
        qid = self.service.submit(query, deadline=deadline)
        self._resolve_ready()
        answer = self.service.poll(qid)
        if answer is not None:
            return answer
        # Imported here: only the asyncio front end needs the event loop,
        # and importing asyncio costs every synchronous caller memory.
        import asyncio

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters[qid] = future
        if self._timer is None:
            self._timer = loop.call_later(self.flush_interval, self._flush)
        return await future

    def _flush(self) -> None:
        self._timer = None
        self.service.flush()
        self._resolve_ready()

    def _resolve_ready(self) -> None:
        for qid in list(self._waiters):
            answer = self.service.poll(qid)
            if answer is not None:
                future = self._waiters.pop(qid)
                if not future.done():
                    future.set_result(answer)

    async def close(self) -> None:
        """Cancel the flush timer, drain, and close the service."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.service.close()
        self._resolve_ready()
