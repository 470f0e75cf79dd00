"""Persistent cluster sessions: the serving layer's protocol substrate.

Every batch entry point so far (`distributed_knn`,
`distributed_knn_batch`) builds the cluster, answers, and dies.  A
:class:`ClusterSession` instead keeps the simulated cluster *resident*:
leader election and shard partitioning run exactly once, and each call
to :meth:`ClusterSession.run_batch` executes one more episode over the
retained machine contexts (see
:meth:`repro.kmachine.simulator.Simulator.run_episode`).  The round
clock, metrics, tracer and span recorder all continue across batches,
so a session's Chrome trace reads as one service timeline.

Within a batch, queries run *concurrently*: one
:func:`repro.core.knn.knn_subroutine` generator per query (tag
namespace ``bq/<qid>``, so per-query traffic stays separable in
``per_tag_messages``), stepped round-robin with a single ``yield`` per
sweep.  Algorithm 2 is latency-bound, not bandwidth-bound — its rounds
are mostly waiting for ``O(k log ℓ)`` small messages — so interleaving
``m`` queries overlaps their waits and costs far fewer rounds than
``m`` sequential runs (measured ≈ 4× fewer at ``m = 8``; the answers
are unchanged because tags demultiplex the traffic).

Scheduler-side decisions (dispatch, cache hits) are recorded as spans
on the pseudo-machine :data:`SCHEDULER_RANK`, so exported traces show
admission decisions on their own track next to the protocol phases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Generator, Sequence

import numpy as np

from ..core.driver import DEFAULT_BANDWIDTH_BITS
from ..core.knn import KNNOutput, knn_subroutine
from ..core.leader import elect
from ..core.messages import tag
from ..dyn.balance import (
    ImbalanceMonitor,
    LocalityRebalanceProgram,
    RebalanceProgram,
    balance_ratio,
)
from ..dyn.epochs import EpochLog
from ..dyn.updates import MutationRecord, UpdateProgram
from ..kmachine.byz import (
    ByzConfig,
    ByzantineError,
    aggregate_suspicions,
    attribute_blame,
)
from ..kmachine.errors import FaultError
from ..kmachine.faults import ByzantinePlan
from ..kmachine.machine import MachineContext, Program
from ..kmachine.metrics import Metrics
from ..kmachine.simulator import Simulator
from ..points.dataset import Dataset, make_dataset
from ..points.ids import Keyed, draw_unique_ids
from ..points.metrics import Metric, get_metric
from ..points.partition import shard_dataset
from .approx import ApproxServeProgram, RoutingTable, routing_from_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.profile import CostProfile

__all__ = [
    "QUERY_NAMESPACE",
    "SCHEDULER_RANK",
    "ClusterSession",
    "QueryJob",
    "ServeBatchProgram",
    "SessionAnswer",
    "SessionInitProgram",
]

#: tag namespace for per-query traffic (``bq/<qid>/...``), shared with
#: :mod:`repro.core.batch` so the same attribution helper applies
QUERY_NAMESPACE = "bq"

#: span "machine" rank for scheduler-side (non-protocol) phases; the
#: Chrome exporter gives negative ranks their own named thread row
SCHEDULER_RANK = -1


@dataclass(frozen=True, eq=False)
class QueryJob:
    """One admitted query: session-unique id, point, optional warm start.

    ``threshold`` is a pruning key every machine may apply immediately
    (a triangle-inequality bound from :mod:`repro.serve.cache`); when
    set, Algorithm 2's sampling stages are skipped for this query.
    """

    qid: int
    query: np.ndarray
    threshold: Keyed | None = None


@dataclass
class SessionAnswer:
    """One query's assembled global answer plus serving accounting."""

    qid: int
    ids: np.ndarray
    distances: np.ndarray
    labels: np.ndarray | None
    boundary: Keyed
    #: absolute session round at which every machine finished the query
    complete_round: int
    #: messages under this query's ``bq/<qid>`` tag namespace
    messages: int = 0
    survivors: int | None = None
    fallback: bool = False
    warm_started: bool = False
    #: exact-path answers leave this ``None``; approximate-path answers
    #: carry the certification verdict (``True`` = provably exact, see
    #: :meth:`repro.serve.approx.RoutingTable.certify`)
    certified: bool | None = None


class SessionInitProgram(Program):
    """Episode 0: leader election only (the amortized one-time cost).

    Re-used for *re*-elections after the session quarantines a leader:
    ``byz`` switches the hardened (quarantine-aware) election paths on
    and ``term`` keeps each re-election's tags distinct so stale
    ballots from an earlier term cannot be replayed into a later one.
    """

    name = "serve-init"

    def __init__(
        self,
        election: str = "fixed",
        byz: ByzConfig | None = None,
        term: int = 0,
    ) -> None:
        self.election = election
        self.byz = byz
        self.term = term

    def run(self, ctx: MachineContext) -> Generator[None, None, int]:
        """Elect and return the leader rank (identical on all machines)."""
        if self.byz is not None and ctx.rank in self.byz.quarantined:
            return -1
        leader = yield from elect(
            ctx, method=self.election, byz=self.byz, term=self.term
        )
        return leader


class ServeBatchProgram(Program):
    """One micro-batch episode: concurrent Algorithm 2 per admitted query.

    Per-machine output is a list aligned with ``jobs`` of
    ``(KNNOutput, complete_round)`` pairs, where ``complete_round`` is
    the absolute session round at which *this machine's* generator for
    the query returned.
    """

    name = "serve-batch"

    def __init__(
        self,
        jobs: Sequence[QueryJob],
        l: int,
        metric: Metric,
        leader: int,
        *,
        safe_mode: bool = True,
        sample_factor: int = 12,
        cutoff_factor: int = 21,
        batch_index: int = 0,
        byz: ByzConfig | None = None,
        attempt: int = 0,
    ) -> None:
        if not jobs:
            raise ValueError("batch must contain at least one job")
        self.jobs = list(jobs)
        self.l = l
        self.metric = metric
        self.leader = leader
        self.safe_mode = safe_mode
        self.sample_factor = sample_factor
        self.cutoff_factor = cutoff_factor
        self.batch_index = batch_index
        self.byz = byz
        self.attempt = attempt

    def _prefix(self, qid: int) -> str:
        """Per-query tag namespace; Byzantine replays get an ``rN``
        segment so a retry can never consume a failed attempt's stale
        traffic (``_messages_for`` still attributes both to ``qid``)."""
        if self.attempt == 0:
            return tag(QUERY_NAMESPACE, qid)
        return tag(QUERY_NAMESPACE, qid, f"r{self.attempt}")

    def run(
        self, ctx: MachineContext
    ) -> Generator[None, None, list[tuple[KNNOutput, int]] | None]:
        """Step one ℓ-NN generator per job round-robin until all return."""
        if self.byz is not None and ctx.rank in self.byz.quarantined:
            return None
        queries = [
            knn_subroutine(
                ctx,
                self.leader,
                ctx.local,
                job.query,
                self.l,
                self.metric,
                safe_mode=self.safe_mode,
                sample_factor=self.sample_factor,
                cutoff_factor=self.cutoff_factor,
                threshold=job.threshold,
                prefix=self._prefix(job.qid),
                byz=self.byz,
            )
            for job in self.jobs
        ]
        done: list[tuple[KNNOutput, int] | None] = [None] * len(queries)
        pending: list[Generator[None, None, KNNOutput] | None] = list(queries)
        remaining = len(pending)
        with ctx.obs.span(tag("serve", "batch", self.batch_index)):
            while remaining:
                for i, gen in enumerate(pending):
                    if gen is None:
                        continue
                    try:
                        next(gen)
                    except StopIteration as stop:
                        done[i] = (stop.value, ctx.round)
                        pending[i] = None
                        remaining -= 1
                if remaining:
                    # One bare yield per sweep: every still-pending query
                    # advanced by (at most) one protocol round, so m
                    # concurrent queries share each simulated round.
                    yield
        return [pair for pair in done if pair is not None]


class ClusterSession:
    """A resident simulated cluster answering query batches on demand.

    Construction shards the corpus, builds the simulator, and runs the
    election episode; the session then accepts any number of
    :meth:`run_batch` calls until :meth:`close`.

    Parameters mirror :func:`repro.core.batch.distributed_knn_batch`;
    ``spans``/``trace``/``timeline``/``profile`` plumb through to the
    simulator so a whole session can be exported as one Chrome trace —
    and, with ``profile=True``, analysed by the cost-model profiler
    (:meth:`cost_profile`).
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
        sample_factor: int = 12,
        cutoff_factor: int = 21,
        spans: bool = False,
        trace: bool = False,
        timeline: bool = False,
        profile: bool = False,
        balance_threshold: float = 2.0,
        auto_rebalance: bool = True,
        byzantine: ByzantinePlan | None = None,
        byzantine_f: int | None = None,
        byzantine_timeout_rounds: int = 32,
        backend: str = "sim",
        net_options: Any = None,
    ) -> None:
        if k < 2:
            raise ValueError("serving needs k >= 2 machines")
        rng = np.random.default_rng(seed)
        self.dataset = (
            points
            if isinstance(points, Dataset)
            else make_dataset(np.asarray(points), labels=labels, rng=rng)
        )
        if not 1 <= l <= len(self.dataset):
            raise ValueError(f"l={l} outside [1, {len(self.dataset)}]")
        self.l = l
        self.k = k
        self.metric = get_metric(metric)
        self.safe_mode = safe_mode
        self.sample_factor = sample_factor
        self.cutoff_factor = cutoff_factor
        # -- Byzantine hardening (see DESIGN.md §11) -------------------
        byz_requested = byzantine is not None or (
            byzantine_f is not None and byzantine_f > 0
        )
        if byz_requested and not safe_mode:
            raise ValueError("byzantine hardening requires safe_mode=True")
        f_target = (
            byzantine_f
            if byzantine_f is not None
            else (byzantine.f if byzantine is not None else 0)
        )
        f_eff = min(int(f_target), max(0, (k - 1) // 3))
        self._byz_plan = byzantine.restricted_to(k) if byzantine is not None else None
        self._byz_cfg = (
            ByzConfig(f=f_eff, timeout_rounds=byzantine_timeout_rounds)
            if byz_requested
            else None
        )
        #: ranks convicted of lying and fenced off (crashed + excluded
        #: from every quorum; their points live on in healthy shards)
        self.quarantined: set[int] = set()
        self._election_term = 0
        self._last_fail_leader: int | None = None
        #: built by :meth:`cluster_corpus`; required by the approximate
        #: serving path and refreshed by :meth:`rebalance_locality`
        self.routing: RoutingTable | None = None
        #: placement centers when the ``locality`` partitioner was used
        self.placement_centers: np.ndarray | None = None
        if partitioner == "locality":
            # Cluster-aware initial placement: label every point with
            # its nearest center (one hot region per machine) and let
            # the partitioner keep same-cluster points together.
            from ..cluster.sharding import locality_assignment

            placement_labels, self.placement_centers = locality_assignment(
                self.dataset, k, metric=self.metric, seed=seed
            )
            shards = shard_dataset(
                self.dataset, k, rng, partitioner, labels=placement_labels
            )
        else:
            shards = shard_dataset(self.dataset, k, rng, partitioner)
        sim_kwargs = dict(
            k=k,
            program=SessionInitProgram(election),
            inputs=shards,
            seed=None if seed is None else seed + 1,
            bandwidth_bits=bandwidth_bits,
            spans=spans,
            trace=trace,
            timeline=timeline,
            profile=profile,
            byzantine=self._byz_plan,
        )
        if backend == "net":
            # The TCP runtime keeps the cluster resident across
            # episodes exactly like the simulator's retained contexts;
            # it rejects the features it cannot host (Byzantine plans,
            # tracing) with a ValueError at construction.
            from ..runtime.net import NetSimulator

            self._sim = NetSimulator(
                persistent=True, options=net_options, **sim_kwargs
            )
        elif backend == "sim":
            if net_options is not None:
                raise ValueError('net_options only applies to backend="net"')
            self._sim = Simulator(**sim_kwargs)
        else:
            raise ValueError(f"unknown backend {backend!r}; known: ('sim', 'net')")
        #: whether per-link counters + round detail are being recorded
        self.profile = profile
        init = self._sim.run()
        self.leader = int(init.outputs[0])
        #: rounds spent before the first query (election episode)
        self.setup_rounds = self._sim.metrics.rounds
        self.batches = 0
        self.closed = False
        # -- dynamic-data state (see repro.dyn) ------------------------
        self._shards = shards
        #: bumps once per set-changing update episode (never on rebalance)
        self.data_epoch = 0
        #: ordered record of every epoch transition (cache sync source)
        self.epoch_log = EpochLog()
        #: per-machine shard sizes, refreshed from every episode's report
        self.loads: list[int] = [len(s) for s in shards]
        #: accounting for every mutation episode (budget checks read this)
        self.mutations: list[MutationRecord] = []
        self.monitor = ImbalanceMonitor(threshold=balance_threshold, robust_f=f_eff)
        self.auto_rebalance = auto_rebalance
        # Insert ids must be unique against everything ever assigned; a
        # dedicated stream (seed offset 2) keeps query/election seeding
        # untouched so static sessions reproduce pre-dyn runs exactly.
        self._id_rng = np.random.default_rng(
            None if seed is None else seed + 2
        )
        # Establish the balance invariant before the first query: a
        # skewed/adversarial initial placement may already violate it.
        report = self.monitor.observe(self._live_loads())
        if self.auto_rebalance and self.monitor.should_rebalance(report):
            self.rebalance()

    # -- introspection -------------------------------------------------
    @property
    def metrics(self) -> Metrics:
        """Session-cumulative round/message/bit accounting."""
        return self._sim.metrics

    @property
    def rounds(self) -> int:
        """Total simulated rounds so far (election included)."""
        return self._sim.metrics.rounds

    @property
    def tracer(self):
        """The session tracer (a ``NullTracer`` unless ``trace=True``)."""
        return self._sim.tracer

    @property
    def spans(self) -> list:
        """Recorded spans (empty unless ``spans=True``)."""
        rec = self._sim.span_recorder
        return [] if rec is None else rec.spans

    def cost_profile(self, cost_model=None) -> "CostProfile":
        """Cost-model profile of the whole session (needs ``profile=True``).

        Sessions charge communication with the simulator's default
        zero-cost model, so the profile's *modelled* times re-derive
        what the session traffic would cost under ``cost_model``
        (:data:`~repro.kmachine.timing.DEFAULT_COST_MODEL` when
        omitted) — hypothetical but exact arithmetic, covering every
        episode the session has run so far.
        """
        from ..obs.profile import CostProfile

        return CostProfile(
            self.metrics, cost_model=cost_model, spans=self.spans, k=self.k
        )

    def mark(self, name: str) -> None:
        """Record an instantaneous scheduler-side span (cache hit etc.)."""
        rec = self._sim.span_recorder
        if rec is not None:
            rec.close(rec.open(name, SCHEDULER_RANK))

    # -- serving -------------------------------------------------------
    def run_batch(self, jobs: Sequence[QueryJob]) -> list[SessionAnswer]:
        """Answer one micro-batch of admitted queries (one episode).

        ``jobs`` must carry session-unique ``qid`` values — tags (and
        hence per-query message attribution) key on them.  Returns one
        :class:`SessionAnswer` per job, in job order.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        jobs = list(jobs)
        if not jobs:
            return []
        if self._byz_cfg is not None:
            return self._run_batch_byz(jobs)
        rec = self._sim.span_recorder
        dispatch_span = (
            rec.open(tag("serve", "dispatch", self.batches), SCHEDULER_RANK)
            if rec is not None
            else None
        )
        program = ServeBatchProgram(
            jobs,
            self.l,
            self.metric,
            self.leader,
            safe_mode=self.safe_mode,
            sample_factor=self.sample_factor,
            cutoff_factor=self.cutoff_factor,
            batch_index=self.batches,
        )
        result = self._sim.run_episode(program)
        if dispatch_span is not None:
            rec.close(dispatch_span)
        self.batches += 1
        return self._assemble(jobs, result.outputs)

    # -- approximate serving (see DESIGN.md §14) -----------------------
    def cluster_corpus(
        self,
        n_centers: int | None = None,
        *,
        objective: str = "kmedian",
        size: int | None = None,
    ):
        """Run one distributed clustering episode and build the routing table.

        The episode (:class:`repro.cluster.driver.ClusteringProgram`)
        costs ``3(k − 1)`` messages; its leader output carries the
        per-machine assignment matrices the
        :class:`~repro.serve.approx.RoutingTable` needs.  Defaults to
        ``k`` centers — one hot region per machine.  Returns the
        leader's :class:`~repro.cluster.driver.ClusteringOutput`.
        """
        from ..cluster.coreset import DEFAULT_CORESET_SIZE
        from ..cluster.driver import ClusteringProgram

        if self.closed:
            raise RuntimeError("session is closed")
        if self._byz_cfg is not None:
            raise ValueError(
                "approximate serving requires a fault-free session"
            )
        program = ClusteringProgram(
            self.leader,
            self.k if n_centers is None else n_centers,
            objective=objective,
            size=DEFAULT_CORESET_SIZE if size is None else size,
            metric=self.metric,
        )
        result = self._sim.run_episode(program)
        out = result.outputs[self.leader]
        self.routing = RoutingTable.from_clustering(out, self.metric)
        return out

    def run_approx_batch(
        self, jobs: Sequence[QueryJob], *, fanout: int = 2
    ) -> list[SessionAnswer]:
        """Answer a micro-batch approximately via the routing table.

        Each query consults only the ``fanout`` machines with the
        smallest triangle-inequality lower bounds (≤ ``fanout``
        messages per query, two rounds per batch).  Every answer's
        ``certified`` flag reports whether it is provably exact; the
        exact path (:meth:`run_batch`) is untouched.  Requires
        :meth:`cluster_corpus` to have built ``self.routing``.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if self.routing is None:
            raise RuntimeError(
                "no routing table: call cluster_corpus() before "
                "run_approx_batch()"
            )
        jobs = list(jobs)
        if not jobs:
            return []
        targets = [self.routing.route(job.query, fanout) for job in jobs]
        rec = self._sim.span_recorder
        dispatch_span = (
            rec.open(tag("serve", "dispatch", self.batches), SCHEDULER_RANK)
            if rec is not None
            else None
        )
        program = ApproxServeProgram(
            jobs,
            targets,
            self.l,
            self.metric,
            self.leader,
            batch_index=self.batches,
        )
        result = self._sim.run_episode(program)
        if dispatch_span is not None:
            rec.close(dispatch_span)
        self.batches += 1
        per_tag = self._sim.metrics.per_tag_messages
        message_counts = _messages_for(per_tag, [job.qid for job in jobs])
        merged = result.outputs[self.leader]
        live = [r for r in range(self.k) if r not in self.quarantined]
        answers: list[SessionAnswer] = []
        for job, routed, approx, messages in zip(
            jobs, targets, merged, message_counts
        ):
            full = len(approx.ids) == self.l
            certified = full and self.routing.certify(
                job.query,
                routed,
                float(approx.distances[-1]),
                live=live,
            )
            boundary = (
                Keyed(float(approx.distances[-1]), int(approx.ids[-1]))
                if len(approx.ids)
                else Keyed(float("inf"), -1)
            )
            answers.append(
                SessionAnswer(
                    qid=job.qid,
                    ids=approx.ids,
                    distances=approx.distances,
                    labels=approx.labels,
                    boundary=boundary,
                    complete_round=approx.complete_round,
                    messages=messages,
                    certified=certified,
                )
            )
        return answers

    def _assemble(
        self, jobs: Sequence[QueryJob], outputs: list
    ) -> list[SessionAnswer]:
        per_tag = self._sim.metrics.per_tag_messages
        message_counts = {
            job.qid: count
            for job, count in zip(
                jobs,
                _messages_for(per_tag, [job.qid for job in jobs]),
            )
        }
        answers: list[SessionAnswer] = []
        for i, job in enumerate(jobs):
            table_parts = []
            label_parts = []
            leader_out: KNNOutput | None = None
            complete_round = 0
            for per_machine in outputs:
                if per_machine is None:  # crashed rank: no contribution
                    continue
                out, finished = per_machine[i]
                complete_round = max(complete_round, finished)
                if out.is_leader:
                    leader_out = out
                part = np.empty(len(out.ids), dtype=[("value", "f8"), ("id", "i8")])
                part["value"] = out.distances
                part["id"] = out.ids
                table_parts.append(part)
                if out.labels is not None:
                    label_parts.append(out.labels)
            table = np.concatenate(table_parts)
            order = np.argsort(table, order=("value", "id"))
            boundary = (
                leader_out.boundary
                if leader_out is not None
                else Keyed(float(table["value"][order][-1]), int(table["id"][order][-1]))
            )
            answers.append(
                SessionAnswer(
                    qid=job.qid,
                    ids=table["id"][order].copy(),
                    distances=table["value"][order].copy(),
                    labels=(
                        np.concatenate(label_parts)[order] if label_parts else None
                    ),
                    boundary=boundary,
                    complete_round=complete_round,
                    messages=message_counts.get(job.qid, 0),
                    survivors=None if leader_out is None else leader_out.survivors,
                    fallback=False if leader_out is None else leader_out.fallback,
                    warm_started=job.threshold is not None,
                )
            )
        return answers

    # -- Byzantine supervision (see DESIGN.md §11) ---------------------
    #
    # The session is the trusted control plane: liars tamper only with
    # their NIC, so shard objects and per-machine outputs are genuine
    # even on a lying machine.  Correctness therefore never rests on
    # the quorum layer — every served answer is re-verified against
    # the downward-closure invariant (common boundary + exactly ℓ
    # points), and any corrupting lie trips the check, convicts a
    # suspect, and replays the query with the suspect fenced off.

    @property
    def _byz_budget(self) -> int:
        """Attempt budget per operation: each failed attempt fences at
        least one machine, and ``f`` liars plus the ambiguous-blame
        slack can absorb at most ``2f + 1`` failures."""
        return 2 * self._byz_cfg.f + 2

    def _reset_suspicions(self) -> None:
        """Clear per-machine accusation ledgers before an attempt so
        blame attribution weighs only the evidence of that attempt."""
        for ctx in self._sim.contexts:
            ctx._byz_suspicions = None  # type: ignore[attr-defined]

    def _run_batch_byz(self, jobs: list[QueryJob]) -> list[SessionAnswer]:
        """Hardened :meth:`run_batch`: verify, convict, fence, replay."""
        rec = self._sim.span_recorder
        dispatch_span = (
            rec.open(tag("serve", "dispatch", self.batches), SCHEDULER_RANK)
            if rec is not None
            else None
        )
        answers: dict[int, SessionAnswer] = {}
        pending = list(jobs)
        budget = self._byz_budget
        # Hardened gathers time out, so patience must scale with the
        # traffic sharing the links: m concurrent queries multiply the
        # per-link queueing delay by ~m (worst on a nearly-fenced
        # cluster where everything funnels through few machines).
        # ``stretch`` additionally doubles after any attempt that
        # fences nobody — no fencing means no liar was identified, so
        # the failure is congestion, and replaying at the same timeout
        # would livelock.
        stretch = 1
        for attempt in range(budget):
            self._reset_suspicions()
            cfg = replace(
                self._byz_cfg,
                timeout_rounds=self._byz_cfg.timeout_rounds
                * max(1, len(pending))
                * stretch,
            )
            program = ServeBatchProgram(
                pending,
                self.l,
                self.metric,
                self.leader,
                safe_mode=self.safe_mode,
                sample_factor=self.sample_factor,
                cutoff_factor=self.cutoff_factor,
                batch_index=self.batches,
                byz=cfg,
                attempt=attempt,
            )
            caught: FaultError | None = None
            result = None
            try:
                result = self._sim.run_episode(program)
            except FaultError as exc:
                caught = exc
            self.batches += 1
            failed: list[QueryJob] = []
            mismatch: set[int] = set()
            if caught is None:
                assembled = self._assemble(pending, result.outputs)
                for i, (job, answer) in enumerate(zip(pending, assembled)):
                    ok, bad_ranks = self._verify_query(i, result.outputs)
                    if ok:
                        answers[job.qid] = answer
                    else:
                        failed.append(job)
                        mismatch |= bad_ranks
            else:
                failed = pending
            if not failed:
                break
            if attempt == budget - 1:
                raise ByzantineError(
                    f"batch unverified after {budget} attempts "
                    f"({len(failed)} of {len(jobs)} queries failing)"
                )
            suspects = self._byz_suspects(caught, mismatch)
            self._last_fail_leader = self.leader
            self.mark(tag("byz", "retry", self.batches))
            fenced_before = len(self.quarantined)
            self._quarantine(suspects)
            if len(self.quarantined) == fenced_before:
                stretch *= 2
            pending = failed
        if dispatch_span is not None:
            rec.close(dispatch_span)
        return [answers[job.qid] for job in jobs]

    def _verify_query(
        self, index: int, outputs: list
    ) -> tuple[bool, set[int]]:
        """Trusted-side exactness check for one served query.

        Every machine outputs precisely its local keys ``<=`` its
        believed boundary (honest code, so this holds on liars too).
        If all contributing machines report the *same* boundary and
        the assembled total is exactly ``l``, the union is the
        downward-closed ℓ-prefix of the global key order — the exact
        answer.  Any corrupting lie must break one of the two
        conditions; the broken condition names its suspects (minority
        boundary groups, or ranks whose realised count contradicts the
        leader's accepted bookkeeping).
        """
        contrib: list[tuple[int, KNNOutput]] = []
        for rank, per_machine in enumerate(outputs):
            if per_machine is None:  # crashed or quarantined
                continue
            contrib.append((rank, per_machine[index][0]))
        groups: dict[tuple[float, int], list[int]] = {}
        total = 0
        leader_out: KNNOutput | None = None
        for rank, out in contrib:
            total += len(out.ids)
            key = (float(out.boundary.value), int(out.boundary.id))
            groups.setdefault(key, []).append(rank)
            if out.is_leader:
                leader_out = out
        ok = True
        mismatch: set[int] = set()
        if len(groups) > 1:
            ok = False
            majority = max(groups.values(), key=len)
            for ranks in groups.values():
                if ranks is not majority:
                    mismatch.update(ranks)
        if total != self.l:
            ok = False
            stats = None if leader_out is None else leader_out.selection_stats
            accepted = getattr(stats, "accepted_counts", None)
            if accepted is not None and len(accepted) == self.k:
                for rank, out in contrib:
                    if int(accepted[rank]) != len(out.ids):
                        mismatch.add(rank)
        return ok, mismatch

    def _byz_suspects(
        self, caught: FaultError | None, mismatch: set[int]
    ) -> tuple[int, ...]:
        """Whom to fence after a failed attempt (mirrors the batch
        driver's layered attribution; see ``attribute_blame``)."""
        f = self._byz_cfg.f
        if isinstance(caught, ByzantineError) and caught.suspects:
            explicit = [
                r
                for r in caught.suspects
                if 0 <= r < self.k and r not in self.quarantined
            ]
            if 0 < len(explicit) <= f + 1:
                # Unlike the batch drivers, a session keeps its leader
                # across attempts — a lying leader could deflect blame
                # onto one honest accusation target per attempt forever.
                # Two consecutive failures under the same leader fence
                # the leader alongside the explicit evidence.
                if (
                    self._last_fail_leader == self.leader
                    and self.leader not in explicit
                    and self.leader not in self.quarantined
                ):
                    explicit.append(self.leader)
                return tuple(sorted(set(explicit)))
        weights = aggregate_suspicions(
            self._sim.contexts, exclude=frozenset(self.quarantined)
        )
        clean_mismatch = [r for r in mismatch if r not in self.quarantined]
        if caught is None and not clean_mismatch and not weights:
            return ()  # nothing attributable: retry without exclusion
        repeat = self._last_fail_leader == self.leader
        return attribute_blame(
            mismatch=clean_mismatch,
            weights=weights,
            f=f,
            leader=self.leader,
            repeat_offender=repeat,
        )

    def _quarantine(self, ranks: Sequence[int]) -> None:
        """Fence convicted ranks and restore a clean protocol state.

        A fenced machine is crashed in the simulator (its NIC never
        speaks again), struck from every quorum via ``ByzConfig.
        quarantined``, and its shard is re-provisioned into healthy
        machines from the session mirror — the NIC-adversary model
        means its *data* was always genuine, so no information is
        lost, only capacity.  Always drains in-flight traffic and
        audits the shards, because the failed attempt that led here
        may have left partial protocol state behind.
        """
        fresh = sorted(
            r for r in set(ranks) if 0 <= r < self.k and r not in self.quarantined
        )
        live = self.k - len(self.quarantined)
        for r in fresh:
            if live <= 2:
                break  # never fence below two live machines
            self.quarantined.add(r)
            self._sim.crashed_ranks.add(r)
            self._sim.network.purge_machine(r)
            live -= 1
        self._byz_cfg = replace(
            self._byz_cfg, quarantined=frozenset(self.quarantined)
        )
        self._drain_traffic()
        self._audit_shards()
        if self.leader in self.quarantined:
            self._reelect()

    def _drain_traffic(self) -> None:
        """Drop every queued and delivered-but-unread message.

        Failed attempts abandon suspended generators mid-protocol; the
        fixed ``dyn/*`` tags (unlike the attempt-suffixed query tags)
        would otherwise let a retry consume the wreckage.
        """
        self._sim.network.drop_all()
        for ctx in self._sim.contexts:
            ctx.discard_pending()

    def _reelect(self) -> None:
        """Replace a fenced leader via one f-tolerant election episode."""
        self._election_term += 1
        live = [r for r in range(self.k) if r not in self.quarantined]
        try:
            init = self._sim.run_episode(
                SessionInitProgram(
                    "f_tolerant", byz=self._byz_cfg, term=self._election_term
                )
            )
            self.leader = next(
                int(init.outputs[r]) for r in live if init.outputs[r] is not None
            )
        except FaultError:
            # No quorum (more liars than f among the survivors): fall
            # back to the lowest live rank — deterministic, and answer
            # verification still guards correctness.
            self._drain_traffic()
            self.leader = live[0]

    def _audit_shards(self) -> int:
        """Reconcile the shards to exactly partition the mirror dataset.

        The control-plane repair that backs every liveness claim:
        quarantined shards are emptied, duplicate placements deduped
        (first rank wins), ids not in the mirror dropped (rolls back a
        partially-applied failed update), and mirror points missing
        from every shard re-provisioned onto the emptiest live shards.
        Returns the number of points repaired; refreshes ``loads``.
        """
        live = [r for r in range(self.k) if r not in self.quarantined]
        mirror_ids = {int(i) for i in self.dataset.ids}
        seen: set[int] = set()
        repaired = 0
        for rank, shard in enumerate(self._shards):
            drop: list[int] = []
            for raw in shard.ids:
                i = int(raw)
                if rank in self.quarantined or i not in mirror_ids or i in seen:
                    drop.append(i)
                else:
                    seen.add(i)
            if drop:
                shard.remove_ids(np.asarray(drop, dtype=np.int64))
                repaired += len(drop)
        missing = mirror_ids - seen
        if missing:
            sel = np.isin(self.dataset.ids, np.asarray(sorted(missing), dtype=np.int64))
            coords = self.dataset.points[sel]
            ids = self.dataset.ids[sel]
            labels = None if self.dataset.labels is None else self.dataset.labels[sel]
            chunks = np.array_split(np.arange(len(ids)), len(live))
            targets = sorted(live, key=lambda r: len(self._shards[r]))
            for chunk, rank in zip(chunks, targets):
                if len(chunk):
                    self._shards[rank].add_points(
                        coords[chunk],
                        ids[chunk],
                        None if labels is None else labels[chunk],
                    )
            repaired += len(missing)
        self.loads = [len(s) for s in self._shards]
        return repaired

    # -- dynamic data --------------------------------------------------
    def _live_loads(self) -> list[int]:
        """Load vector restricted to non-quarantined machines.

        Fenced ranks hold zero points forever; feeding their zeros to
        the imbalance monitor both skews the mean and lets
        ``trimmed_ratio`` trim real outliers against phantom machines.
        """
        if not self.quarantined:
            return self.loads
        return [n for r, n in enumerate(self.loads) if r not in self.quarantined]

    @property
    def imbalance_ratio(self) -> float:
        """Current ``max_i n_i / (n/k)`` over live machines."""
        return balance_ratio(self._live_loads())

    def insert(
        self, points: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Insert a batch of live points; returns their assigned ids.

        Ids are drawn from the session's dedicated id stream and
        guaranteed distinct from every live id, so the w.h.p. id-space
        arguments (and the rebalancer's id-range partitioning) keep
        holding under churn.  One update episode is run; the data epoch
        bumps by one.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1) if self.dataset.dim > 1 else (
                points.reshape(-1, 1)
            )
        if labels is not None:
            labels = np.asarray(labels)
        ids = self._draw_insert_ids(len(points))
        self._apply_updates(
            insert_ids=ids, insert_points=points, insert_labels=labels
        )
        return ids

    def delete(self, ids: "Sequence[int] | np.ndarray") -> int:
        """Delete live points by id; returns the number removed.

        Every id must be live (unknown ids raise — silently "deleting"
        nothing would desynchronise callers' mirrors), and the corpus
        must stay at least ``l`` points so queries remain well-posed.
        One update episode is run; the data epoch bumps by one.
        """
        delete_ids = np.unique(np.asarray(ids, dtype=np.int64))
        if len(delete_ids) == 0:
            return 0
        missing = delete_ids[~np.isin(delete_ids, self.dataset.ids)]
        if len(missing):
            raise KeyError(f"ids not live: {missing[:8].tolist()}")
        if len(self.dataset) - len(delete_ids) < self.l:
            raise ValueError(
                f"deleting {len(delete_ids)} of {len(self.dataset)} points "
                f"would leave fewer than l={self.l}"
            )
        self._apply_updates(delete_ids=tuple(int(i) for i in delete_ids))
        return len(delete_ids)

    def rebalance(self) -> MutationRecord:
        """Run one selection-driven rebalance episode (no epoch change).

        Placement moves, the point set does not: answers and caches
        stay valid, so ``data_epoch`` is deliberately untouched.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        ratio_before = self.imbalance_ratio
        before_messages = self.metrics.messages
        before_rounds = self.metrics.rounds
        if self._byz_cfg is None:
            result = self._sim.run_episode(RebalanceProgram(self.leader))
            leader_out = result.outputs[self.leader]
            self.loads = list(leader_out.loads)
        else:
            # Bounded retry; a rebalance is a performance repair, so an
            # exhausted budget degrades to "still unbalanced" rather
            # than raising — the audit keeps the shards a valid
            # partition either way, and later episodes (with the liars
            # fenced) restore balance.
            leader_out = None
            for _ in range(self._byz_budget):
                self._reset_suspicions()
                try:
                    result = self._sim.run_episode(
                        RebalanceProgram(self.leader, byz=self._byz_cfg)
                    )
                    leader_out = result.outputs[self.leader]
                    break
                except FaultError as exc:
                    suspects = self._byz_suspects(exc, set())
                    self._last_fail_leader = self.leader
                    self._quarantine(suspects)
            self._audit_shards()
        record = MutationRecord(
            kind="rebalance",
            epoch=self.data_epoch,
            messages=self.metrics.messages - before_messages,
            rounds=self.metrics.rounds - before_rounds,
            splitters_run=0 if leader_out is None else leader_out.splitters_run,
            moved_points=0 if leader_out is None else int(leader_out.moved_total or 0),
            n_after=int(sum(self.loads)),
            ratio_before=ratio_before,
            ratio_after=self.imbalance_ratio,
        )
        self.mutations.append(record)
        self.monitor.observe(self._live_loads(), epoch=self.data_epoch)
        return record

    def rebalance_locality(self) -> MutationRecord:
        """Migrate the live cluster onto the routing table's placement.

        One :class:`~repro.dyn.balance.LocalityRebalanceProgram`
        episode: every point moves to the machine owning its nearest
        cluster center, so subsequent approximate queries find whole
        clusters co-located (fanout 1 often suffices).  Placement moves,
        the point set does not — no epoch change, caches stay valid.
        The routing table's ``counts``/``radii`` are refreshed from
        shard truth afterwards.  Fault-plan sessions fall back to the
        id-space :meth:`rebalance` (its defenses are already wired).
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if self._byz_cfg is not None:
            return self.rebalance()
        if self.routing is None:
            raise RuntimeError(
                "no routing table: call cluster_corpus() before "
                "rebalance_locality()"
            )
        ratio_before = self.imbalance_ratio
        before_messages = self.metrics.messages
        before_rounds = self.metrics.rounds
        program = LocalityRebalanceProgram(
            self.leader,
            self.routing.centers,
            self.routing.owner_of_center,
            metric=self.metric,
        )
        result = self._sim.run_episode(program)
        leader_out = result.outputs[self.leader]
        self.loads = list(leader_out.loads)
        self.routing = routing_from_shards(
            self._shards, self.routing.centers, self.metric
        )
        record = MutationRecord(
            kind="rebalance",
            epoch=self.data_epoch,
            messages=self.metrics.messages - before_messages,
            rounds=self.metrics.rounds - before_rounds,
            moved_points=int(leader_out.moved_total or 0),
            n_after=int(sum(self.loads)),
            ratio_before=ratio_before,
            ratio_after=self.imbalance_ratio,
        )
        self.mutations.append(record)
        # Deliberately no monitor.observe: locality trades balance for
        # warm hits, and the observation would arm the auto id-space
        # rebalancer to undo the migration on the next update.
        return record

    def _draw_insert_ids(self, count: int) -> np.ndarray:
        """``count`` fresh ids, distinct from each other and every live id."""
        taken = set(int(i) for i in self.dataset.ids)
        fresh: list[int] = []
        need = count
        while need:
            candidates = draw_unique_ids(
                self._id_rng, need, len(self.dataset) + count
            )
            for c in candidates:
                c = int(c)
                if c not in taken:
                    taken.add(c)
                    fresh.append(c)
            need = count - len(fresh)
        return np.asarray(fresh, dtype=np.int64)

    def _apply_updates(
        self,
        *,
        insert_ids: np.ndarray | None = None,
        insert_points: np.ndarray | None = None,
        insert_labels: np.ndarray | None = None,
        delete_ids: tuple[int, ...] = (),
    ) -> MutationRecord:
        """Run one update episode and thread its effects through the session.

        Protocol, mirror dataset, load vector, epoch log, mutation
        accounting and the imbalance monitor all advance together here —
        this is the single place the session's dynamic state changes.
        """
        if self.closed:
            raise RuntimeError("session is closed")
        if insert_ids is None:
            insert_ids = np.empty(0, dtype=np.int64)
            insert_points = np.empty((0, self.dataset.dim), dtype=np.float64)
        ratio_before = self.imbalance_ratio
        before_messages = self.metrics.messages
        before_rounds = self.metrics.rounds
        if self._byz_cfg is None:
            program = UpdateProgram(
                self.leader,
                insert_ids=insert_ids,
                insert_points=insert_points,
                insert_labels=insert_labels,
                delete_ids=delete_ids,
            )
            result = self._sim.run_episode(program)
            leader_out = result.outputs[self.leader]
            self.loads = list(leader_out.loads)
            deletes_applied = int(leader_out.deleted_total or 0)
        else:
            # Bounded retry.  A failed attempt may have half-applied the
            # batch; _quarantine's audit rolls the shards back to the
            # pre-mutation mirror state, so every retry starts clean.
            leader_out = None
            budget = self._byz_budget
            for attempt in range(budget):
                self._reset_suspicions()
                program = UpdateProgram(
                    self.leader,  # re-read: a retry may have re-elected
                    insert_ids=insert_ids,
                    insert_points=insert_points,
                    insert_labels=insert_labels,
                    delete_ids=delete_ids,
                    byz=self._byz_cfg,
                )
                try:
                    result = self._sim.run_episode(program)
                    leader_out = result.outputs[self.leader]
                    break
                except FaultError as exc:
                    suspects = self._byz_suspects(exc, set())
                    self._last_fail_leader = self.leader
                    self._quarantine(suspects)
                    if attempt == budget - 1:
                        raise ByzantineError(
                            f"update episode failed after {budget} attempts"
                        ) from exc
            # Wire-reported loads/counts may be lies; ground truth only.
            deletes_applied = len(delete_ids)
        # Mirror the global set (shards hold the placed copies): queries
        # and the brute-force oracle both read this dataset.
        if delete_ids:
            self.dataset.remove_ids(np.asarray(delete_ids, dtype=np.int64))
        if len(insert_ids):
            self.dataset.add(insert_points, insert_ids, insert_labels)
        if self._byz_cfg is not None:
            # Repairs silenced plan/insert envelopes (lost placements)
            # from the mirror and refreshes loads from shard truth.
            self._audit_shards()
        transition = self.epoch_log.record(
            inserts=len(insert_ids), deletes=deletes_applied
        )
        self.data_epoch = transition.epoch
        record = MutationRecord(
            kind="update",
            epoch=self.data_epoch,
            messages=self.metrics.messages - before_messages,
            rounds=self.metrics.rounds - before_rounds,
            inserts=len(insert_ids),
            deletes=deletes_applied,
            insert_targets=(
                0 if leader_out is None else int(leader_out.insert_targets or 0)
            ),
            n_after=int(sum(self.loads)),
            ratio_before=ratio_before,
            ratio_after=self.imbalance_ratio,
        )
        self.mutations.append(record)
        report = self.monitor.observe(self._live_loads(), epoch=self.data_epoch)
        if self.auto_rebalance and self.monitor.should_rebalance(report):
            self.mark(tag("dyn", "trigger", self.data_epoch))
            self.rebalance()
        return record

    def close(self) -> None:
        """Mark the session closed; further :meth:`run_batch` calls raise.

        On the TCP backend this also tears the cluster down (peer
        processes, sockets, coordinator loop); the in-process simulator
        has nothing to release.
        """
        self.closed = True
        closer = getattr(self._sim, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _messages_for(per_tag: dict[str, int], qids: Sequence[int]) -> list[int]:
    """Per-qid message counts for arbitrary (non-contiguous) qids.

    Session qids grow without bound, so instead of materializing a
    dense ``per_query_messages`` list up to ``max(qid)``, count just the
    requested ids in one pass over the tag table.
    """
    wanted = {int(q): i for i, q in enumerate(qids)}
    counts = [0] * len(qids)
    for msg_tag, count in per_tag.items():
        parts = msg_tag.split("/", 2)
        if len(parts) >= 2 and parts[0] == QUERY_NAMESPACE:
            try:
                qid = int(parts[1])
            except ValueError:
                continue
            slot = wanted.get(qid)
            if slot is not None:
                counts[slot] += count
    return counts
