"""One-call user API: distributed selection and ℓ-NN on simulated machines.

These helpers wrap the full pipeline — dataset wrapping, partitioning
onto ``k`` machines, simulator construction with a paper-faithful
bandwidth, protocol execution, and result assembly — behind two
functions:

>>> import numpy as np
>>> from repro.core.driver import distributed_select, distributed_knn
>>> rng = np.random.default_rng(0)
>>> values = rng.uniform(0, 100, 10_000)
>>> result = distributed_select(values, l=10, k=8, seed=1)
>>> len(result.values)
10
>>> pts = rng.uniform(0, 1, (5_000, 8))
>>> res = distributed_knn(pts, query=pts[0], l=5, k=8, seed=1)
>>> res.ids.shape
(5,)

Bandwidth default: the model says ``B = Θ(log n)`` bits — i.e. a
constant number of (value, id)-sized words per round.  We default to
:data:`DEFAULT_BANDWIDTH_BITS`, sized so that exactly one protocol
query message (opcode + two keys) fits per link per round; this is
the tightest setting under which all protocols here advance one
protocol step per round, and it is what makes the simple method's
Θ(ℓ)-round transfer visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..kmachine.byz import (
    ByzConfig,
    ByzantineError,
    aggregate_suspicions,
    attribute_blame,
)
from ..kmachine.errors import KMachineError
from ..kmachine.faults import ByzantinePlan, FaultPlan
from ..kmachine.machine import Program
from ..kmachine.metrics import Metrics
from ..kmachine.reliable import ReliabilityConfig
from ..kmachine.simulator import SimulationResult, Simulator
from ..kmachine.timing import CostModel
from ..points.dataset import Dataset, make_dataset
from ..points.ids import Keyed
from ..points.metrics import Metric, get_metric
from ..points.partition import shard_dataset
from .binary_search import BinarySearchKNNProgram
from .knn import KNNOutput, KNNProgram
from .saukas_song import SaukasSongKNNProgram
from .selection import SelectionProgram, SelectionStats
from .simple import SimpleKNNProgram

__all__ = [
    "DEFAULT_BANDWIDTH_BITS",
    "RecoveryInfo",
    "SelectResult",
    "KNNResult",
    "distributed_select",
    "distributed_knn",
    "knn_program_for",
    "ALGORITHMS",
]

#: One Algorithm-1 query message — an opcode string plus two (value,
#: id) keys plus the header — rounded up to a power of two.
DEFAULT_BANDWIDTH_BITS = 512

#: Protocol registry for :func:`distributed_knn`'s ``algorithm=`` knob.
ALGORITHMS = ("sampled", "unpruned", "simple", "saukas_song", "binary_search")


def _attempt_seed(seed: int | None, attempt: int) -> int | None:
    """Deterministic per-attempt simulator seed.

    Attempt 1 reproduces the historical ``seed + 1`` exactly (so
    fault-free runs are byte-identical to the unsupervised driver);
    retries derive fresh-but-reproducible seeds so a re-run does not
    replay the randomness that just failed.
    """
    if seed is None:
        return None
    if attempt == 1:
        return seed + 1
    return int(
        np.random.SeedSequence([seed, 0x5E1F, attempt]).generate_state(1)[0]
        & 0x7FFFFFFF
    )


#: Execution backends for the drivers' ``backend=`` switch.
BACKENDS = ("sim", "net")


def build_executor(
    backend: str, net_options: Any, persistent: bool = False, **kwargs
) -> Any:
    """Construct an executor for ``backend``: the one backend switch.

    ``"sim"`` is the in-process :class:`Simulator`; ``"net"`` the TCP
    backend (:class:`repro.runtime.net.NetSimulator`), which shares
    the constructor surface and raises ``ValueError`` for the features
    it cannot host (Byzantine plans, the unreliable layer) rather than
    silently diverging.  Each backend declares the ``observe`` levels
    it records (``OBSERVE_LEVELS``: every level on the simulator,
    ``off``/``spans``/``profile`` on net); any other level raises one
    ``ValueError`` naming the supported ones.  ``persistent`` keeps
    the TCP cluster resident across episodes (sessions); the simulator
    always retains its contexts, so only the net backend reads it.
    Imported lazily so the common path never touches the runtime
    package.
    """
    if backend == "net":
        from ..runtime.net import NetSimulator

        return NetSimulator(persistent=persistent, options=net_options, **kwargs)
    if backend != "sim":
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    if net_options is not None:
        raise ValueError('net_options only applies to backend="net"')
    return Simulator(**kwargs)


def _byzantine_request(
    byzantine: ByzantinePlan | None, byzantine_f: int | None
) -> tuple[bool, int]:
    """``(requested, f)``: whether Byzantine hardening is on, and its
    budget ``f`` (``byzantine_f``, else the plan's liar count).  A plan
    alone turns it on; ``byzantine_f=0`` without one keeps the plain path.
    """
    requested = byzantine is not None or (byzantine_f is not None and byzantine_f > 0)
    if byzantine_f is None:
        byzantine_f = 0 if byzantine is None else byzantine.f
    return requested, byzantine_f


def _byz_answer_check(
    boundaries: list[Keyed],
    sizes: list[int],
    accepted: np.ndarray | None,
    total_lo: int,
    total_hi: int,
) -> tuple[str | None, list[int]]:
    """Trusted-side answer invariant after a Byzantine-supervised run.

    Exactness argument: every machine — liars included, because the
    adversary sits on the NIC while the program code is honest —
    outputs precisely its local keys at or below its believed
    boundary.  If all machines agree on one boundary, the union of
    outputs is the downward-closed set of every key ≤ boundary; if its
    size lands in ``[total_lo, total_hi]`` it therefore contains the ℓ
    globally smallest keys.  Any lie that corrupts the assembled
    answer must break one of those two conditions, which this check
    (running in the trusted driver, outside the adversary's reach)
    observes directly.  Returns ``(error, mismatch_ranks)`` where the
    mismatch list pins machines whose realised output contradicts the
    leader's per-machine accepted tally — evidence a liar cannot fake
    on behalf of an honest machine.
    """
    groups: dict[tuple[float, int], list[int]] = {}
    for rank, boundary in enumerate(boundaries):
        key = (float(boundary.value), int(boundary.id))
        groups.setdefault(key, []).append(rank)
    mismatch: set[int] = set()
    problems: list[str] = []
    if len(groups) > 1:
        majority = max(groups.values(), key=len)
        for ranks in groups.values():
            if ranks is not majority:
                mismatch.update(ranks)
        problems.append(f"boundary disagreement across {len(groups)} values")
    total = sum(sizes)
    if not total_lo <= total <= total_hi:
        problems.append(f"assembled {total} keys, want [{total_lo}, {total_hi}]")
        if accepted is not None and len(accepted) == len(sizes):
            mismatch.update(
                rank
                for rank in range(len(sizes))
                if int(accepted[rank]) != sizes[rank]
            )
    if not problems:
        return None, []
    return "byzantine corruption: " + "; ".join(problems), sorted(mismatch)


def _byz_suspects(
    sup: "_Supervisor",
    sim: Simulator,
    f_eff: int,
    leader_local: int | None,
    mismatch: Iterable[int],
    exc: KMachineError | None,
) -> tuple[int, ...]:
    """Local ranks to quarantine after one failed Byzantine attempt.

    Trusts, in order: the raising machine's explicit suspect list
    (when small enough that an ``f``-liar adversary could have framed
    at most one honest machine), then output-vs-claim mismatches plus
    aggregated suspicion weights via
    :func:`repro.kmachine.byz.attribute_blame`.  With no leads at all
    the attempt is retried without exclusions — the re-election and
    fresh seed reshuffle the protocol, and the answer check never
    accepts a corrupted run, so this only costs attempts.
    """
    if (
        isinstance(exc, ByzantineError)
        and exc.suspects
        and len(exc.suspects) <= f_eff + 1
    ):
        return tuple(r for r in exc.suspects if 0 <= r < sup.k_eff)
    mismatch = [r for r in mismatch if 0 <= r < sup.k_eff]
    weights = aggregate_suspicions(sim.contexts)
    if leader_local is None:
        if not mismatch and not weights:
            return ()
        leader_local = 0
    leader_orig = sup.survivors[leader_local]
    repeat = sup.last_fail_leader is not None and sup.last_fail_leader == leader_orig
    return attribute_blame(
        mismatch=mismatch,
        weights=weights,
        f=f_eff,
        leader=leader_local,
        repeat_offender=repeat,
    )


class _Supervisor:
    """Shared attempt-loop bookkeeping for the fault-tolerant drivers.

    The driver is the durable ingest layer: it holds the *full*
    dataset, so after a failed attempt it re-shards everything across
    the surviving machines and restarts the protocol.  Exactness of
    the final answer therefore survives crash-stop failures — no data
    dies with a machine.  Tracks the survivor set (original ranks),
    the shrinking fault plan (fired crashes must not re-fire), merged
    metrics across attempts, and the :class:`RecoveryInfo` trail.
    """

    def __init__(
        self,
        k: int,
        faults: FaultPlan | None,
        max_attempts: int,
        byzantine: ByzantinePlan | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.survivors = list(range(k))
        self.plan = faults.restricted_to(k) if faults is not None else None
        self.byz_plan = byzantine.restricted_to(k) if byzantine is not None else None
        self.max_attempts = max_attempts
        self.recovery = RecoveryInfo(attempts=0)
        self.metrics: Metrics | None = None
        self.last_error: KMachineError | None = None
        #: Original rank of the leader that presided over the previous
        #: failed attempt (repeat-offender detection).
        self.last_fail_leader: int | None = None

    @property
    def k_eff(self) -> int:
        return len(self.survivors)

    def charge(self, attempt_metrics: Metrics) -> None:
        """Merge one attempt's (possibly partial) metrics into the total."""
        self.recovery.attempts += 1
        self.metrics = (
            attempt_metrics
            if self.metrics is None
            else self.metrics.merge(attempt_metrics)
        )

    def record_failure(
        self, sim: Simulator, err: str, suspects: Iterable[int] = ()
    ) -> None:
        """Account a failed attempt: drop crashed ranks, quarantine
        Byzantine ``suspects`` (local ranks), shrink both plans.

        Excluding a falsely-accused *honest* machine costs capacity
        only, never data — the driver re-shards the full dataset over
        whoever remains."""
        self.recovery.errors.append(f"attempt {self.recovery.attempts}: {err}")
        fired_local = sorted(sim.crashed_ranks)
        sus_local = sorted(
            r for r in set(suspects)
            if 0 <= r < self.k_eff and r not in sim.crashed_ranks
        )
        self.recovery.crashed.extend(self.survivors[r] for r in fired_local)
        self.recovery.excluded.extend(self.survivors[r] for r in sus_local)
        gone = set(fired_local) | set(sus_local)
        keep_local = [i for i in range(self.k_eff) if i not in gone]
        self.survivors = [self.survivors[i] for i in keep_local]
        if self.plan is not None:
            if fired_local:
                self.plan = self.plan.without_crashes(tuple(fired_local))
            self.plan = self.plan.restricted_to(self.k_eff)
        if self.byz_plan is not None:
            self.byz_plan = self.byz_plan.remap(keep_local)

    def give_up(self, what: str, err: str) -> "KMachineError":
        """The error to raise when no attempts remain."""
        if self.last_error is not None:
            return self.last_error
        return KMachineError(
            f"{what} failed after {self.recovery.attempts} attempts: {err}"
        )


@dataclass
class RecoveryInfo:
    """What the supervised drivers did to survive injected faults.

    Attached to results when :func:`distributed_select` /
    :func:`distributed_knn` ran with a fault plan (or the reliable
    layer).  ``attempts`` counts protocol runs, including the final
    successful one; ``crashed`` lists the crashed machines' *original*
    ranks in crash order; ``degraded`` marks the graceful-degradation
    fallback to the simple method; ``errors`` records why each failed
    attempt was abandoned.
    """

    attempts: int = 1
    crashed: list[int] = field(default_factory=list)
    #: Original ranks quarantined as Byzantine suspects (may include
    #: falsely-accused honest machines — a capacity loss, never a
    #: correctness loss).
    excluded: list[int] = field(default_factory=list)
    degraded: bool = False
    errors: list[str] = field(default_factory=list)


@dataclass
class SelectResult:
    """Assembled output of :func:`distributed_select`.

    ``values``/``ids`` are the globally ℓ smallest, ascending by
    (value, id); ``metrics`` is the run's round/message accounting;
    ``stats`` the leader's iteration statistics.  ``recovery`` is
    populated on supervised (fault-injected) runs and covers every
    attempt; ``metrics`` then includes the cost of failed attempts.
    """

    values: np.ndarray
    ids: np.ndarray
    boundary: Keyed
    metrics: Metrics
    stats: SelectionStats
    raw: SimulationResult
    recovery: RecoveryInfo | None = None


@dataclass
class KNNResult:
    """Assembled output of :func:`distributed_knn`.

    ``ids``/``distances``/``points``/``labels`` are the global ℓ-NN
    answer gathered from all machines, ascending by (distance, id).
    ``leader_output`` retains the leader's :class:`KNNOutput` (with
    sampling statistics); ``metrics`` the communication accounting.
    """

    ids: np.ndarray
    distances: np.ndarray
    points: np.ndarray
    labels: np.ndarray | None
    boundary: Keyed
    metrics: Metrics
    leader_output: KNNOutput
    raw: SimulationResult
    recovery: RecoveryInfo | None = None


def _run_supervised(
    what: str,
    k: int,
    seed: int | None,
    rng: np.random.Generator,
    make_attempt: Callable[..., tuple[Program, Any]],
    answer_shape: Callable[..., tuple[list[Keyed], list[int], Any, int, int]],
    *,
    degrade: bool,
    election: str,
    faults: FaultPlan | None,
    byzantine: ByzantinePlan | None,
    byzantine_f: int | None,
    byz_timeout: int,
    reliable: ReliabilityConfig | bool,
    max_attempts: int,
    attempt_max_rounds: int | None,
    backend: str,
    net_options: Any,
    **executor_kwargs,
) -> tuple[SimulationResult, Metrics, RecoveryInfo | None]:
    """The supervised attempt loop both drivers run.

    Each attempt asks ``make_attempt(k_eff, shard_rng, election, byz_cfg,
    degraded)`` for its program and per-machine inputs, runs them on a
    fresh executor, and — under Byzantine supervision — checks the
    answer invariant on ``answer_shape(outputs, leader_local)``
    (:func:`_byz_answer_check`'s arguments).  A failed attempt is
    charged, blamed and recorded (see :class:`_Supervisor`) and the
    loop retries until the budget runs out; with ``degrade`` set and no
    Byzantine plan, one final attempt runs with ``degraded=True`` (the
    simple method has no hardened variant, so Byzantine runs never
    degrade).  Attempt 1 shards with ``rng`` and elects with
    ``election`` exactly like an unsupervised run, so fault-free runs
    stay byte-identical.  Returns the accepted run, the metrics summed
    over every attempt, and the recovery trail (``None`` when the run
    was not supervised).
    """
    byz_requested, f_target = _byzantine_request(byzantine, byzantine_f)
    supervised = faults is not None or bool(reliable) or byz_requested
    budget = max(max_attempts, 2 * f_target + 2) if byz_requested else max_attempts
    sup = _Supervisor(k, faults, budget if supervised else 1, byzantine=byzantine)
    attempt_budget = sup.max_attempts
    degraded = False

    while True:
        attempt = sup.recovery.attempts + 1
        if sup.k_eff < 1:
            raise sup.give_up(what, "every machine crashed")
        # attempt 1 keeps the historical fault-free shard stream and election
        shard_rng = rng if attempt == 1 else np.random.default_rng(_attempt_seed(seed, attempt))
        election_mode = election
        if attempt > 1 and election == "fixed":
            election_mode = "f_tolerant" if byz_requested else "min_id"
        byz_cfg = None
        f_eff = 0
        if byz_requested:
            f_eff = min(f_target, max(0, (sup.k_eff - 1) // 3))
            byz_cfg = ByzConfig(f=f_eff, timeout_rounds=byz_timeout)
        program, inputs = make_attempt(
            sup.k_eff, shard_rng, election_mode, byz_cfg, degraded
        )
        sim = build_executor(
            backend,
            net_options,
            k=sup.k_eff,
            program=program,
            inputs=inputs,
            seed=_attempt_seed(seed, attempt),
            max_rounds=attempt_max_rounds if attempt_max_rounds is not None else 1_000_000,
            faults=sup.plan,
            byzantine=sup.byz_plan,
            reliable=reliable or None,
            **executor_kwargs,
        )
        err: str | None = None
        caught: KMachineError | None = None
        try:
            result = sim.run()
        except KMachineError as exc:
            if not supervised:
                raise
            sup.last_error = caught = exc
            err = f"{type(exc).__name__}: {exc}"
        if err is None and any(out is None for out in result.outputs):
            err = "incomplete outputs (machine crashed after peers finished)"
        leader_local: int | None = None
        mismatch: list[int] = []
        if byz_requested and err is None:
            leader_local = next(
                (r for r, out in enumerate(result.outputs) if out.is_leader), None
            )
            err, mismatch = _byz_answer_check(
                *answer_shape(result.outputs, leader_local)
            )
        sup.charge(sim.metrics)
        if err is None:
            return result, sup.metrics, sup.recovery if supervised else None
        suspects: tuple[int, ...] = ()
        if byz_requested and sup.k_eff > 1:
            suspects = _byz_suspects(sup, sim, f_eff, leader_local, mismatch, caught)
            sup.last_fail_leader = (
                sup.survivors[leader_local] if leader_local is not None else None
            )
        sup.record_failure(sim, err, suspects=suspects)
        if sup.recovery.attempts >= attempt_budget:
            if degrade and not degraded and not byz_requested:
                degraded = True
                sup.recovery.degraded = True
                attempt_budget += 1
                continue
            raise sup.give_up(what, err)


def _select_inputs(dataset: Dataset, k: int, rng, partitioner: str) -> list[np.ndarray]:
    shards = shard_dataset(dataset, k, rng, partitioner)
    inputs = []
    for shard in shards:
        keys = np.empty(len(shard), dtype=[("value", "f8"), ("id", "i8")])
        keys["value"] = shard.points[:, 0]
        keys["id"] = shard.ids
        keys.sort(order=("value", "id"))
        inputs.append(keys)
    return inputs


def distributed_select(
    values: Sequence[float] | np.ndarray,
    l: int,
    k: int,
    *,
    seed: int | None = None,
    bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
    election: str = "fixed",
    partitioner: str = "random",
    measure_compute: bool = False,
    cost_model: CostModel | None = None,
    slack: float = 0.0,
    faults: FaultPlan | None = None,
    byzantine: ByzantinePlan | None = None,
    byzantine_f: int | None = None,
    reliable: ReliabilityConfig | bool = False,
    max_attempts: int = 3,
    attempt_max_rounds: int | None = None,
    timeout_rounds: int | None = None,
    observe: str = "off",
    backend: str = "sim",
    net_options: Any = None,
) -> SelectResult:
    """Find the ℓ smallest of ``values`` with Algorithm 1 on k machines.

    ``values`` is any 1-D numeric array; IDs are assigned internally
    (ties broken the paper's way).  ``partitioner`` picks the
    adversary (see :mod:`repro.points.partition`).  ``slack > 0``
    switches to the approximate early-stopping variant (see
    :func:`repro.core.selection.selection_subroutine`): the result
    then contains all ℓ true smallest plus up to ``slack·ℓ`` extras.

    Fault tolerance: with ``faults`` (a
    :class:`~repro.kmachine.faults.FaultPlan`) and/or ``reliable``
    (``True`` or a :class:`~repro.kmachine.reliable.ReliabilityConfig`)
    the run is *supervised*: a failed attempt — leader or worker
    crash, exhausted retransmissions, a timeout (``timeout_rounds``
    per receive, ``attempt_max_rounds`` per attempt) — is retried up
    to ``max_attempts`` times.  Each retry drops the crashed machines,
    re-shards the **full** value set over the survivors (the driver is
    the durable ingest layer, so the answer stays exact) and
    re-elects the leader by minimum ID.  ``result.recovery`` records
    the trail; ``result.metrics`` sums all attempts.

    Byzantine tolerance: with ``byzantine`` (a
    :class:`~repro.kmachine.faults.ByzantinePlan` of lying machines)
    and/or ``byzantine_f`` (the defense budget ``f``; defaults to the
    plan's liar count) the protocol runs its quorum-hardened variant
    (see :mod:`repro.kmachine.byz`), the driver verifies the
    answer-exactness invariant after every attempt, and failed
    attempts quarantine the implicated machines before re-sharding and
    re-electing ``f``-tolerantly.  ``max_attempts`` is raised to at
    least ``2f + 2``.  For ``f < k/3`` the returned answer is never
    wrong — a corrupted attempt is always detected and retried.

    Observability: ``observe`` is the run's one observability level
    (``"off"``, ``"spans"``, ``"profile"`` or ``"trace"``, each
    recording everything the one before it does; see
    :data:`~repro.kmachine.simulator.OBSERVE_LEVELS`).  The recorded
    spans and tracer ride on ``result.raw``, the timeline on
    ``result.metrics``, and a profiled run's per-link counters feed
    :mod:`repro.obs.profile`.  No level changes the answer or the
    round and message bills.

    Backends: ``backend="net"`` executes every attempt on the TCP
    runtime (:class:`repro.runtime.net.NetSimulator`, one OS process
    per machine, peers exchanging outboxes over a clique of sockets)
    with transport knobs from ``net_options`` (a
    :class:`repro.runtime.net.NetOptions` or kwargs dict).  Protocol
    randomness matches the simulator seed-for-seed, so the answer is
    identical; crash-stop fault plans still drive the supervised
    recovery path, while probabilistic faults, Byzantine plans, the
    reliable layer and ``observe="trace"`` require the default
    ``backend="sim"``.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not 0 <= l <= arr.size:
        raise ValueError(f"l={l} outside [0, {arr.size}]")
    rng = np.random.default_rng(seed)
    dataset = make_dataset(arr, rng=rng)

    def make_attempt(k_eff, shard_rng, election_mode, byz_cfg, degraded):
        program = SelectionProgram(
            l, election=election_mode, slack=slack,
            timeout_rounds=timeout_rounds, byz=byz_cfg,
        )
        return program, _select_inputs(dataset, k_eff, shard_rng, partitioner)

    def answer_shape(outputs, leader_local):
        accepted = None
        if leader_local is not None and outputs[leader_local].stats is not None:
            accepted = outputs[leader_local].stats.accepted_counts
        lo = min(l, arr.size)
        hi = lo if slack <= 0 else min(arr.size, l + int(math.ceil(slack * l)))
        return (
            [out.boundary for out in outputs],
            [len(out.selected) for out in outputs],
            accepted, lo, hi,
        )

    result, metrics, recovery = _run_supervised(
        "selection", k, seed, rng, make_attempt, answer_shape,
        degrade=False,
        election=election,
        faults=faults,
        byzantine=byzantine,
        byzantine_f=byzantine_f,
        byz_timeout=timeout_rounds if timeout_rounds is not None else 32,
        reliable=reliable,
        max_attempts=max_attempts,
        attempt_max_rounds=attempt_max_rounds,
        backend=backend,
        net_options=net_options,
        bandwidth_bits=bandwidth_bits,
        measure_compute=measure_compute,
        cost_model=cost_model,
        observe=observe,
    )

    merged = np.concatenate([out.selected for out in result.outputs])
    merged.sort(order=("value", "id"))
    leader_out = next(out for out in result.outputs if out.is_leader)
    return SelectResult(
        values=merged["value"].copy(),
        ids=merged["id"].copy(),
        boundary=leader_out.boundary,
        metrics=metrics,
        stats=leader_out.stats,
        raw=result,
        recovery=recovery,
    )


def knn_program_for(
    algorithm: str,
    query: np.ndarray,
    l: int,
    metric: Metric | str,
    election: str = "fixed",
    **knobs,
) -> Program:
    """Construct the KNN protocol program named by ``algorithm``.

    ``sampled`` is the paper's Algorithm 2; ``unpruned`` is Algorithm 2
    without the sampling stage (the O(log ℓ + log k) variant);
    ``simple``, ``saukas_song`` and ``binary_search`` are the
    baselines.  Extra ``knobs`` (``sample_factor``, ``cutoff_factor``,
    ``safe_mode``) only apply to the sampled variants.
    """
    if algorithm == "sampled":
        return KNNProgram(query, l, metric, election, **knobs)
    if algorithm == "unpruned":
        return KNNProgram(query, l, metric, election, prune=False, **knobs)
    if algorithm == "simple":
        return SimpleKNNProgram(query, l, metric, election)
    if algorithm == "saukas_song":
        return SaukasSongKNNProgram(query, l, metric, election)
    if algorithm == "binary_search":
        return BinarySearchKNNProgram(query, l, metric, election)
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")


def distributed_knn(
    points: np.ndarray | Dataset,
    query: np.ndarray | float,
    l: int,
    k: int,
    *,
    labels: np.ndarray | None = None,
    metric: Metric | str = "euclidean",
    algorithm: str = "sampled",
    seed: int | None = None,
    bandwidth_bits: int | None = DEFAULT_BANDWIDTH_BITS,
    election: str = "fixed",
    partitioner: str = "random",
    measure_compute: bool = False,
    cost_model: CostModel | None = None,
    faults: FaultPlan | None = None,
    byzantine: ByzantinePlan | None = None,
    byzantine_f: int | None = None,
    reliable: ReliabilityConfig | bool = False,
    max_attempts: int = 3,
    attempt_max_rounds: int | None = None,
    observe: str = "off",
    backend: str = "sim",
    net_options: Any = None,
    **knobs,
) -> KNNResult:
    """Answer one ℓ-NN query over ``points`` sharded onto k machines.

    The primary public entry point.  ``points`` may be a raw array
    (IDs assigned internally, optional ``labels``) or a prepared
    :class:`~repro.points.dataset.Dataset`.

    Fault tolerance: with ``faults`` and/or ``reliable`` the run is
    supervised exactly like :func:`distributed_select` — failed
    attempts (crashes, exhausted retransmissions, timeouts) drop the
    crashed machines, re-shard the full dataset over the survivors,
    re-elect the leader by minimum ID and retry, so the answer stays
    the exact ℓ-NN.  When all ``max_attempts`` runs of Algorithm 2
    fail, the driver *degrades gracefully*: one final attempt runs the
    simple method (no sampling stage — fewer protocol phases to
    disrupt) before giving up.  ``result.recovery`` records attempts,
    crashes, degradation and per-attempt errors; ``result.metrics``
    sums every attempt.

    Byzantine tolerance: ``byzantine``/``byzantine_f`` work exactly as
    in :func:`distributed_select` — hardened protocol, trusted answer
    verification after every attempt, quarantine of implicated
    machines, ``f``-tolerant re-election, ``max_attempts`` raised to
    ``≥ 2f + 2``.  Graceful degradation to the simple method is
    *disabled* under Byzantine supervision (the simple method has no
    hardened variant, so degrading would trade a detected failure for
    a potentially silent wrong answer), and only the ``sampled`` and
    ``unpruned`` algorithms support hardening.

    Observability: ``observe`` is the run's one observability level
    (``"off"``, ``"spans"``, ``"profile"`` or ``"trace"``, each
    recording everything the one before it does; see
    :data:`~repro.kmachine.simulator.OBSERVE_LEVELS`).  The recorded
    spans and tracer ride on ``result.raw``, the timeline on
    ``result.metrics``, and a profiled run's per-link counters feed
    :mod:`repro.obs.profile`.  No level changes the answer or the
    round and message bills.

    Backends: ``backend="net"`` runs every attempt on the TCP runtime
    exactly as described for :func:`distributed_select` — identical
    answers (same seed ⇒ same protocol randomness), crash-stop fault
    plans supported, everything needing payload visibility
    (probabilistic faults, Byzantine, reliable layer,
    ``observe="trace"``) restricted to ``backend="sim"``.
    """
    rng = np.random.default_rng(seed)
    dataset = (
        points
        if isinstance(points, Dataset)
        else make_dataset(np.asarray(points), labels=labels, rng=rng)
    )
    if not 1 <= l <= len(dataset):
        raise ValueError(f"l={l} outside [1, {len(dataset)}]")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    if _byzantine_request(byzantine, byzantine_f)[0]:
        if algorithm not in ("sampled", "unpruned"):
            raise ValueError(
                f"byzantine hardening supports algorithms 'sampled' and "
                f"'unpruned', not {algorithm!r}"
            )
        if knobs.get("safe_mode") is False:
            raise ValueError("byzantine hardening requires safe_mode=True")
    metric_obj = get_metric(metric)
    query_arr = np.atleast_1d(np.asarray(query, dtype=np.float64))

    def make_attempt(k_eff, shard_rng, election_mode, byz_cfg, degraded):
        shards = shard_dataset(
            dataset, k_eff, shard_rng, partitioner,
            metric=metric_obj, query=query_arr,
        )
        current = "simple" if degraded else algorithm
        attempt_knobs = dict(knobs) if current in ("sampled", "unpruned") else {}
        if byz_cfg is not None and current in ("sampled", "unpruned"):
            attempt_knobs["byz"] = byz_cfg
        program = knn_program_for(
            current, query_arr, l, metric_obj, election_mode, **attempt_knobs
        )
        return program, shards

    def answer_shape(outputs, leader_local):
        accepted = None
        if leader_local is not None and outputs[leader_local].selection_stats is not None:
            accepted = outputs[leader_local].selection_stats.accepted_counts
        return (
            [out.boundary for out in outputs],
            [len(out.ids) for out in outputs],
            accepted, l, l,
        )

    result, metrics, recovery = _run_supervised(
        "knn", k, seed, rng, make_attempt, answer_shape,
        # Graceful degradation: when Algorithm 2's sampling pipeline
        # keeps failing, the simple method gets one last shot.
        degrade=algorithm != "simple",
        election=election,
        faults=faults,
        byzantine=byzantine,
        byzantine_f=byzantine_f,
        byz_timeout=knobs.get("timeout_rounds") or 32,
        reliable=reliable,
        max_attempts=max_attempts,
        attempt_max_rounds=attempt_max_rounds,
        backend=backend,
        net_options=net_options,
        bandwidth_bits=bandwidth_bits,
        measure_compute=measure_compute,
        cost_model=cost_model,
        observe=observe,
    )

    outputs: list[KNNOutput] = result.outputs
    table = np.empty(
        sum(len(o.ids) for o in outputs), dtype=[("value", "f8"), ("id", "i8")]
    )
    offset = 0
    rows = []
    labels_parts = []
    for out in outputs:
        n = len(out.ids)
        table["value"][offset : offset + n] = out.distances
        table["id"][offset : offset + n] = out.ids
        rows.append(out.points)
        if out.labels is not None:
            labels_parts.append(out.labels)
        offset += n
    order = np.argsort(table, order=("value", "id"))
    all_points = np.concatenate(rows) if rows else np.empty((0, dataset.dim))
    all_labels = np.concatenate(labels_parts) if labels_parts else None
    leader_out = next(out for out in outputs if out.is_leader)
    return KNNResult(
        ids=table["id"][order].copy(),
        distances=table["value"][order].copy(),
        points=all_points[order],
        labels=None if all_labels is None else all_labels[order],
        boundary=leader_out.boundary,
        metrics=metrics,
        leader_output=leader_out,
        raw=result,
        recovery=recovery,
    )
