"""Round-synchronous simulator for the k-machine model.

The :class:`Simulator` owns ``k`` machine contexts, the bandwidth-
constrained :class:`~repro.kmachine.network.Network`, and the round
loop.  One loop iteration is one synchronous round:

1. messages that finished transmission last round are delivered to
   destination buffers;
2. every still-running machine's program generator is resumed once
   (its local computation for the round, optionally timed), except a
   machine whose last :class:`~repro.kmachine.machine.Wait` says its
   receive cannot progress yet;
3. messages queued by :meth:`MachineContext.send` are submitted to the
   network, which drains each link at ``B`` bits per round.

The loop ends when every program has returned and all link queues are
empty.  :class:`Metrics` then reports the paper's two cost measures —
rounds and messages — plus a modelled wall-clock.

Example
-------
>>> from repro.kmachine import Simulator, FunctionProgram
>>> def hello(ctx):
...     if ctx.rank == 0:
...         ctx.broadcast("hi", ctx.rank)
...         yield
...         return "sent"
...     msg = yield from ctx.recv_one("hi")
...     return msg.payload
>>> result = Simulator(k=3, program=FunctionProgram(hello)).run()
>>> result.outputs
['sent', 0, 0]
>>> result.metrics.messages
2
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

import numpy as np

from .errors import DeadlockError, FaultError, ProtocolError
from .faults import ByzantinePlan, FaultInjector, FaultPlan
from .machine import MachineContext, Program, Wait
from .message import Message
from .metrics import Metrics, RoundRecord
from .network import BandwidthPolicy, Network
from .reliable import ReliabilityConfig, ReliableMachineContext
from .rng import spawn_streams
from .sizing import SizingPolicy
from .timing import CostModel, ZERO_COST_MODEL
from .tracing import NullTracer, Tracer

__all__ = [
    "OBSERVE_LEVELS",
    "Simulator",
    "SimulationResult",
    "observe_level",
    "run_program",
]

#: Default ceiling on rounds before declaring deadlock.
DEFAULT_MAX_ROUNDS = 1_000_000

#: What a run records, cumulatively: each level keeps everything the
#: one before it does.  ``"spans"`` adds phase spans; ``"profile"`` the
#: per-round timeline, per-link counters and busiest-link identities;
#: ``"trace"`` the send/deliver/halt/fault event log.
OBSERVE_LEVELS = ("off", "spans", "profile", "trace")


def observe_level(observe: str, supported: Sequence[str], backend: str) -> int:
    """Rank of ``observe`` in :data:`OBSERVE_LEVELS` (``0`` is off).

    Raises ``ValueError`` naming ``backend``'s ``supported`` levels when
    that backend cannot record ``observe``.
    """
    if observe not in supported:
        raise ValueError(
            f"backend {backend!r} supports observe levels {tuple(supported)}, "
            f"got {observe!r}"
        )
    return OBSERVE_LEVELS.index(observe)


@dataclass
class SimulationResult:
    """Everything a completed simulation produced.

    Attributes
    ----------
    outputs:
        The per-machine return values of the program generators,
        indexed by rank.
    metrics:
        Round/message/bit accounting (see :class:`Metrics`).
    contexts:
        The machine contexts, retained so tests and drivers can
        inspect per-machine state (e.g. each machine's output point
        set after an ℓ-NN run).
    tracer:
        The tracer used (a :class:`NullTracer` below ``observe="trace"``).
    spans:
        Phase spans recorded from ``observe="spans"`` up (a list of
        :class:`repro.obs.spans.Span`); empty otherwise.
    """

    outputs: list[Any]
    metrics: Metrics
    contexts: list[MachineContext]
    tracer: Tracer | NullTracer
    spans: list[Any] = field(default_factory=list)


class Simulator:
    """Synchronous executor for a :class:`Program` over ``k`` machines.

    Parameters
    ----------
    k:
        Number of machines (``>= 1``; the KNN protocols need ``>= 2``).
    program:
        The SPMD program every machine runs.
    inputs:
        Per-machine local inputs: a sequence of length ``k``, a
        callable ``rank -> input``, or ``None``.
    seed:
        Root seed for all machine RNG streams and machine-ID draws.
    bandwidth_bits:
        Link bandwidth ``B`` in bits/round; ``None`` = unbounded.
    policy:
        Bandwidth policy (``queue``/``strict``/``unbounded``).
    cost_model:
        α–β model for the communication component of simulated time.
    measure_compute:
        If true, time every generator resume and charge the per-round
        maximum to :attr:`Metrics.compute_seconds`; the garbage
        collector is paused for the run, as :mod:`timeit` does.  Off by
        default to keep complexity experiments overhead-free.
    max_rounds:
        Deadlock guard; exceeded ⇒ :class:`DeadlockError`.
    observe:
        What the run records, one of :data:`OBSERVE_LEVELS` (each level
        includes the ones before it).  ``"spans"`` attaches a
        :class:`repro.obs.spans.SpanRecorder` and hands each context a
        live ``ctx.obs``, so ``with ctx.obs.span(...)`` blocks in
        protocol code record phase spans.  ``"profile"`` adds the
        per-round :class:`RoundRecord` timeline, per-(src,dst) link
        counters on :attr:`Metrics.per_link_messages`/``per_link_bits``
        and the busiest-link / busiest-receiver identities on every
        record: the input of :mod:`repro.obs.profile`.  ``"trace"``
        adds the send/deliver/halt/fault event log on a :class:`Tracer`.
        ``"off"`` (the default) records none of these, and disabled
        instrumentation costs one no-op context manager per phase.
        No level changes the protocol's rounds, messages or answers.
    faults:
        Optional :class:`~repro.kmachine.faults.FaultPlan`.  A
        :class:`~repro.kmachine.faults.FaultInjector` seeded from the
        plan is attached to the network, and the round loop executes
        the plan's crash-stop events (see below).  Fault decisions are
        a pure function of ``(plan, submission order)``, never of the
        machines' RNG streams, so runs stay reproducible.
    byzantine:
        Optional :class:`~repro.kmachine.faults.ByzantinePlan` of lying
        machines.  Tampering runs inside the same injector, *before*
        the honest fault dice, so crash and Byzantine schedules
        compose.
    reliable:
        ``True`` or a :class:`~repro.kmachine.reliable.
        ReliabilityConfig` to substitute
        :class:`~repro.kmachine.reliable.ReliableMachineContext` for
        every machine: transparent ACK/retransmit, checksum validation
        and duplicate suppression under the program's feet.
    """

    #: the ``observe`` levels this executor can record
    OBSERVE_LEVELS = OBSERVE_LEVELS

    def __init__(
        self,
        k: int,
        program: Program,
        inputs: Sequence[Any] | Callable[[int], Any] | None = None,
        seed: int | None = None,
        bandwidth_bits: int | None = None,
        policy: BandwidthPolicy = "queue",
        cost_model: CostModel | None = None,
        measure_compute: bool = False,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        sizing: SizingPolicy | None = None,
        faults: FaultPlan | None = None,
        byzantine: ByzantinePlan | None = None,
        reliable: ReliabilityConfig | bool | None = None,
        observe: str = "off",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if inputs is not None and not callable(inputs) and len(inputs) != k:
            raise ValueError(f"inputs has length {len(inputs)}, expected k={k}")
        level = observe_level(observe, self.OBSERVE_LEVELS, "sim")
        self.k = k
        self.program = program
        self.cost_model = cost_model or ZERO_COST_MODEL
        self.measure_compute = measure_compute
        self.max_rounds = max_rounds
        #: the timeline plus per-link detail (``"profile"`` and above)
        self.profile = level >= 2
        self.sizing = sizing or SizingPolicy()
        self.network = Network(k, bandwidth_bits=bandwidth_bits, policy=policy)
        self.network.record_link_detail = self.profile
        self.tracer: Tracer | NullTracer = Tracer() if level >= 3 else NullTracer()
        self.fault_plan = faults
        self.byzantine_plan = byzantine
        if faults is not None or (byzantine is not None and not byzantine.trivial):
            self.fault_injector = FaultInjector(
                faults if faults is not None else FaultPlan(), byzantine=byzantine
            )
        else:
            self.fault_injector = None
        self.network.fault_injector = self.fault_injector
        #: ranks felled by crash-stop events, for post-mortem inspection
        self.crashed_ranks: set[int] = set()
        #: the run's (possibly partial) metrics; valid even if run() raises
        self.metrics = Metrics()
        #: absolute round cursor, advanced across episodes so a session's
        #: round clock (and its spans/traces) stays continuous
        self._round_cursor = 0
        #: crash notices staged in an episode's final round, delivered at
        #: the start of the next one
        self._staged_notices: list[int] = []
        #: crashes that fell due in an episode's silent last round; they
        #: fire at the start of the next round
        self._late_crashes: list[int] = []
        #: reliable-layer counters already folded into ``metrics`` (per
        #: rank), so repeated episode exits never double-count
        self._reliability_folded: dict[int, tuple[int, int, int, int]] = {}

        if reliable is True:
            reliability: ReliabilityConfig | None = ReliabilityConfig()
        elif reliable is False or reliable is None:
            reliability = None
        else:
            reliability = reliable
        self.reliability = reliability

        machine_rngs = spawn_streams(seed, k + 1)
        sim_rng = machine_rngs.pop()
        machine_ids = _draw_unique_ids(sim_rng, k)
        ctx_kwargs = {"reliability": reliability} if reliability is not None else {}
        ctx_cls = ReliableMachineContext if reliability is not None else MachineContext
        self.contexts = [
            ctx_cls(
                rank=rank,
                k=k,
                rng=machine_rngs[rank],
                local=_resolve_input(inputs, rank),
                machine_id=machine_ids[rank],
                sizing=self.sizing,
                **ctx_kwargs,
            )
            for rank in range(k)
        ]

        #: live span recorder (``None`` below ``observe="spans"``);
        #: imported lazily so the core machine model never depends on
        #: repro.obs
        self.span_recorder: Any = None
        if level >= 1:
            from ..obs.spans import SpanRecorder

            self.span_recorder = SpanRecorder(self.metrics, self.tracer)
            for ctx in self.contexts:
                ctx.obs = self.span_recorder.for_machine(ctx.rank)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the program to completion and return the result.

        With a fault plan, each round starts by executing crash-stop
        events due this round (the machine's generator is closed, its
        queued traffic purged and accounted) and by delivering crash
        notifications staged in the previous round.  Fault-layer
        exceptions (:class:`~repro.kmachine.errors.FaultError`
        subclasses) propagate unwrapped so supervisors can distinguish
        environmental failure from protocol bugs; :attr:`metrics` and
        :attr:`crashed_ranks` remain readable on this object even when
        the run aborts.
        """
        generators: list[Generator | None] = [
            None if rank in self.crashed_ranks else self.program.instantiate(ctx)
            for rank, ctx in enumerate(self.contexts)
        ]
        return self._execute(self.program, generators)

    def run_episode(self, program: Program) -> SimulationResult:
        """Run ``program`` over the *retained* contexts as one episode.

        The machines keep everything between episodes — their shards
        (``ctx.local``), RNG streams, machine IDs, crash notices — and
        the simulator keeps its network, metrics, tracer and span
        recorder, so successive episodes amortize per-session setup
        (leader election, shard distribution) the way a long-lived
        deployment does.  The round clock continues across episodes:
        episode ``n+1``'s first round follows episode ``n``'s last, and
        :attr:`metrics` accumulates rounds/messages/bits for the whole
        session.  Crashed machines stay crashed (their rank simply does
        not participate); ``max_rounds`` bounds each episode
        separately.

        The returned :class:`SimulationResult` carries this episode's
        per-machine outputs but the *session-cumulative* metrics and
        spans (snapshot deltas around the call give per-episode
        numbers).
        """
        generators: list[Generator | None] = [
            None if rank in self.crashed_ranks else program.instantiate(ctx)
            for rank, ctx in enumerate(self.contexts)
        ]
        return self._execute(program, generators)

    def _execute(
        self, program: Program, generators: list[Generator | None]
    ) -> SimulationResult:
        """:meth:`_run_rounds`; a timed run pauses the collector, whose
        passes (tens of ms on a large heap) would otherwise be charged
        to the machine step that triggered them."""
        paused = self.measure_compute and gc.isenabled()
        if paused:
            gc.disable()
        try:
            return self._run_rounds(program, generators)
        finally:
            if paused:
                gc.enable()

    def _run_rounds(
        self, program: Program, generators: list[Generator | None]
    ) -> SimulationResult:
        outputs: list[Any] = [None] * self.k
        metrics = self.metrics
        injector = self.fault_injector
        if injector is not None:
            injector.bind(metrics, self.tracer)
        deliveries: dict[int, list[Message]] = {}
        # each machine's last yielded token (a Wait, or None for a bare yield)
        waits: list[Wait | None] = [None] * self.k
        staged_notices: list[int] = self._staged_notices
        self._staged_notices = []
        alive = sum(1 for g in generators if g is not None)
        round_idx = start_round = self._round_cursor
        round_deadline = round_idx + self.max_rounds
        active_rounds = metrics.rounds

        recorder = self.span_recorder

        def crash(rank: int) -> None:
            nonlocal alive
            injector.mark_crashed(rank)  # type: ignore[union-attr]
            self.crashed_ranks.add(rank)
            ctx = self.contexts[rank]
            if generators[rank] is not None:
                generators[rank].close()
                generators[rank] = None
                alive -= 1
            for msg in self.network.purge_machine(rank):
                injector.account_purge(msg, rank)  # type: ignore[union-attr]
            for msg in ctx.drain_outbox():
                injector.account_purge(msg, rank)  # type: ignore[union-attr]
            metrics.crash_drops += ctx.discard_pending()
            metrics.crashed.append((rank, round_idx))
            self.tracer.record(round_idx, "crash", machine=rank)
            if self.fault_plan.notify_crashes:
                staged_notices.append(rank)

        #: crashes deferred past step 2 this round: rank -> (its generator,
        #: its inbox count at the round's start, the round's deliveries)
        parked: dict[int, tuple[Generator, int, list[Message]]] = {}

        def settle(silent: bool) -> None:
            """Resolve the crashes parked in step 0.

            Every other machine has stepped.  If the round is not silent
            the crash fires as if at the round's start: the parked
            machine never stepped.  If it is, the parked machines take
            their last step; should every one halt without sending, the
            run ended before the crash, which then fires at the next
            round (the next episode of a session).  Otherwise their step
            is undone: its sends are dropped unsent and its output void.
            """
            nonlocal alive
            stepped = silent
            if silent:
                for rank, (gen, _, msgs) in parked.items():
                    ctx = self.contexts[rank]
                    ctx.round = round_idx
                    ctx.deliver(msgs)
                    try:
                        next(gen)
                        silent = False
                    except StopIteration as stop:
                        outputs[rank] = stop.value
                    except Exception:
                        # The crash pre-empts this step, so its error
                        # never happened: the round is just not silent.
                        silent = False
                    silent = silent and not ctx.has_outbox()
            for rank, (gen, pending, msgs) in parked.items():
                if silent:
                    if outputs[rank] is not None:
                        self.contexts[rank].result = outputs[rank]
                    self.tracer.record(round_idx, "halt", machine=rank)
                    self._late_crashes.append(rank)
                    continue
                ctx = self.contexts[rank]
                if stepped:
                    ctx.drain_outbox()
                    ctx.discard_pending()
                    outputs[rank] = None
                    metrics.crash_drops += pending
                generators[rank] = gen
                alive += 1
                crash(rank)
                for msg in msgs:
                    injector.account_purge(msg, rank)  # type: ignore[union-attr]
            parked.clear()

        try:
            while True:
                if recorder is not None:
                    recorder.round = round_idx
                if round_idx >= round_deadline:
                    stuck = [r for r, g in enumerate(generators) if g is not None]
                    raise DeadlockError(
                        f"protocol {program.name!r} exceeded max_rounds="
                        f"{self.max_rounds}; machines still running: {stuck}"
                    )

                # 0. faults: fire crash-stop events due at this round's
                # start, and deliver last round's crash notifications.
                if injector is not None:
                    injector.begin_round(round_idx)
                    for rank in staged_notices:
                        for r, ctx in enumerate(self.contexts):
                            if r != rank and r not in self.crashed_ranks:
                                ctx.notice_crash(rank)
                    staged_notices.clear()
                    due = sorted(set(injector.crashes_due(round_idx) + self._late_crashes))
                    self._late_crashes = []
                    if (
                        due
                        and self.reliability is None
                        and round_idx > start_round
                        and active_rounds == round_idx
                        and self.network.in_flight() == 0
                    ):
                        # Round r-1 was the last with traffic so far and
                        # nothing is queued: this may be the silent round
                        # in which the machines only consume the final
                        # deliveries and halt.  metrics.rounds does not
                        # count it, so a crash due now must not change
                        # the run; park the running targets until the
                        # others have stepped (see settle).
                        for rank in due:
                            gen = generators[rank]
                            if gen is not None:
                                parked[rank] = (
                                    gen,
                                    self.contexts[rank].pending_count(),
                                    deliveries.pop(rank, []),
                                )
                                generators[rank] = None
                                alive -= 1
                    for rank in due:
                        if rank not in parked:
                            crash(rank)

                # 1. deliver messages that completed transmission last round
                delivered_count = 0
                for dst, msgs in deliveries.items():
                    if dst in self.crashed_ranks:
                        for m in msgs:
                            injector.account_purge(m, dst)  # type: ignore[union-attr]
                        continue
                    if generators[dst] is None and not getattr(
                        self.contexts[dst], "post_halt_delivery", False
                    ):
                        metrics.dropped_messages += len(msgs)
                        for m in msgs:
                            self.tracer.record(round_idx, "drop", machine=dst, tag=m.tag)
                        continue
                    self.contexts[dst].deliver(msgs)
                    delivered_count += len(msgs)
                    if self.tracer.enabled:
                        for m in msgs:
                            self.tracer.record(
                                round_idx, "deliver", machine=dst, src=m.src, tag=m.tag
                            )

                # 2. step every running machine once (logically concurrent);
                # a machine parked on a receive that cannot progress would
                # only re-yield, so it is skipped
                compute_max = 0.0
                for rank, gen in enumerate(generators):
                    if gen is None:
                        continue
                    ctx = self.contexts[rank]
                    ctx.round = round_idx
                    wait = waits[rank]
                    if wait is not None and not ctx.can_progress(wait.tag, wait.deadline):
                        continue
                    started = time.perf_counter() if self.measure_compute else 0.0
                    try:
                        waits[rank] = next(gen)
                    except StopIteration as stop:
                        outputs[rank] = stop.value
                        if stop.value is not None:
                            ctx.result = stop.value
                        generators[rank] = None
                        alive -= 1
                        self.tracer.record(round_idx, "halt", machine=rank)
                    except FaultError:
                        settle(False)
                        raise  # environmental failure: let supervisors see it
                    except Exception as exc:
                        settle(False)
                        raise ProtocolError(
                            f"machine {rank} raised {type(exc).__name__} in round "
                            f"{round_idx} running {program.name!r}: {exc}"
                        ) from exc
                    if self.measure_compute:
                        compute_max = max(compute_max, time.perf_counter() - started)

                if parked:
                    settle(alive == 0 and not any(c.has_outbox() for c in self.contexts))

                # 3. submit this round's sends to the network (halted
                # machines may still drain reliability retransmissions)
                sent_msgs = 0
                sent_bits = 0
                profiling = self.profile
                submit = self.network.submit
                record_send = metrics.record_send
                tracing = self.tracer.enabled
                for rank, ctx in enumerate(self.contexts):
                    if rank in self.crashed_ranks:
                        continue
                    ctx.round = round_idx
                    for msg in ctx.drain_outbox():
                        submit(msg)
                        if profiling:
                            record_send(msg.tag, msg.bits, src=msg.src, dst=msg.dst)
                        else:
                            record_send(msg.tag, msg.bits)
                        sent_msgs += 1
                        sent_bits += msg.bits
                        if tracing:
                            self.tracer.record(
                                round_idx, "send", machine=msg.src, dst=msg.dst,
                                tag=msg.tag,
                            )

                queued_before_step = self.network.in_flight() > 0
                deliveries = self.network.step()
                metrics.max_link_queue_bits = max(
                    metrics.max_link_queue_bits, self.network.queued_bits()
                )

                any_traffic = sent_msgs > 0 or queued_before_step
                comm_cost = self.cost_model.round_cost(
                    self.network.last_step_max_link_bits,
                    any_traffic,
                    self.network.last_step_max_dst_messages,
                )
                metrics.compute_seconds += compute_max
                metrics.comm_seconds += comm_cost
                if any_traffic or alive > 0:
                    # A round "counts" if communication happened or could
                    # still happen; trailing all-halted empty rounds do not.
                    if any_traffic or deliveries:
                        active_rounds = round_idx + 1

                if profiling:
                    metrics.timeline.append(
                        RoundRecord(
                            round=round_idx,
                            messages_sent=sent_msgs,
                            bits_sent=sent_bits,
                            messages_delivered=delivered_count,
                            max_link_bits=self.network.last_step_max_link_bits,
                            compute_seconds=compute_max,
                            comm_seconds=comm_cost,
                            active_machines=alive,
                            max_dst_messages=self.network.last_step_max_dst_messages,
                            top_link=self.network.last_step_top_link,
                            top_ingress=self.network.last_step_top_dst,
                        )
                    )

                round_idx += 1
                if alive == 0:
                    if self.reliability is not None:
                        # Reliable tail: keep the round loop running until
                        # the layer is quiescent (no traffic in flight, no
                        # unacknowledged transmissions on any live machine),
                        # so the final messages and ACKs of a protocol are
                        # protected like all the others.  max_rounds still
                        # bounds this drain.
                        live_unacked = any(
                            ctx.unacked_count()
                            for rank, ctx in enumerate(self.contexts)
                            if rank not in self.crashed_ranks
                            and isinstance(ctx, ReliableMachineContext)
                        )
                        if live_unacked or deliveries or self.network.in_flight() > 0:
                            continue
                    if deliveries or self.network.in_flight() > 0:
                        # all machines halted with traffic still in flight:
                        # deliver-to-nobody; count drops and stop.
                        for msgs in deliveries.values():
                            metrics.dropped_messages += len(msgs)
                        metrics.dropped_messages += len(self.network.drop_all())
                    break
        finally:
            # Fold reliable-layer counters and the round count into the
            # (possibly partial) metrics on every exit path, success or
            # abort, so supervisors can charge failed attempts honestly.
            # Folding is delta-based so repeated episode exits over the
            # same (cumulative) context counters never double-count.
            for rank, ctx in enumerate(self.contexts):
                if isinstance(ctx, ReliableMachineContext):
                    prev = self._reliability_folded.get(rank, (0, 0, 0, 0))
                    now = (
                        ctx.retransmissions,
                        ctx.acks_sent,
                        ctx.duplicates_suppressed,
                        ctx.checksum_failures,
                    )
                    metrics.retransmissions += now[0] - prev[0]
                    metrics.acks_sent += now[1] - prev[1]
                    metrics.duplicates_suppressed += now[2] - prev[2]
                    metrics.checksum_failures += now[3] - prev[3]
                    self._reliability_folded[rank] = now
            metrics.rounds = max(active_rounds, round_idx if alive else active_rounds)
            self._round_cursor = round_idx
            self._staged_notices = staged_notices
            if recorder is not None:
                recorder.close_all()

        return SimulationResult(
            outputs=outputs,
            metrics=metrics,
            contexts=self.contexts,
            tracer=self.tracer,
            spans=list(recorder.spans) if recorder is not None else [],
        )


def _resolve_input(
    inputs: Sequence[Any] | Callable[[int], Any] | None, rank: int
) -> Any:
    if inputs is None:
        return None
    if callable(inputs):
        return inputs(rank)
    return inputs[rank]


def _draw_unique_ids(rng: np.random.Generator, k: int) -> list[int]:
    """Draw k distinct random machine IDs from [1, max(k^3, 64)].

    Mirrors the paper's random-unique-ID trick; redraws on the (low
    probability) collision until all IDs are distinct.
    """
    hi = max(k**3, 64)
    for _ in range(64):
        ids = rng.integers(1, hi + 1, size=k)
        if len(set(int(i) for i in ids)) == k:
            return [int(i) for i in ids]
    # Fall back to a permutation — distinct by construction.
    return [int(i) + 1 for i in rng.permutation(hi)[:k]]


def run_program(
    program: Program,
    k: int,
    inputs: Sequence[Any] | Callable[[int], Any] | None = None,
    **kwargs: Any,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(k=k, program=program, inputs=inputs, **kwargs).run()
