"""Byzantine defense primitives for k-machine protocols.

The fault layer (:mod:`repro.kmachine.faults`) models *honest*
failures; :class:`~repro.kmachine.faults.ByzantinePlan` adds lying
machines whose NICs equivocate counts, forge key values, scale load
reports or selectively drop traffic.  This module is the defense side:
the quorum and robust-reduction building blocks that
:mod:`repro.core.selection`, :mod:`repro.core.knn`,
:mod:`repro.core.leader` and :mod:`repro.dyn` compose behind a
``byzantine_f`` knob.

Threat model (see DESIGN.md §11)
--------------------------------
Up to ``f < k/3`` machines lie on the wire; they still run honest
program code, so their *local* state (shard contents, per-machine
result objects) is trustworthy to the control plane.  The synchronous
clique gives authenticated point-to-point channels: a receiver always
knows the true ``src`` of a message, so a liar cannot impersonate an
honest machine — it can only misreport values and relay them
inconsistently.

Defense layers
--------------
1.  **Quorum-verified gathers** (:func:`gather_quorum` /
    :func:`serve_gather`): every worker broadcasts its leader-bound
    report and peers relay what they heard as :class:`Echo` envelopes.
    The leader resolves each origin by plurality; with ``f < k/3``,
    dissent above ``f`` on one origin proves that origin equivocated.
2.  **Confirmed broadcasts** (:func:`confirmed_broadcast` /
    :func:`receive_confirmed`): workers cross-echo a leader broadcast
    and adopt the plurality value when it has ``>= W - f`` support
    (``W`` = number of live workers), correcting per-recipient lies by
    a Byzantine leader and aborting with suspicion on wider splits.
3.  **Robust reductions** (:func:`median_of_reports`,
    :func:`robust_loads`): median-anchored clipping bounds the damage
    a lying load/report scalar can do to placement decisions.
4.  **Suspicion tracking + blame attribution**
    (:class:`SuspicionTracker`, :func:`aggregate_suspicions`,
    :func:`attribute_blame`): protocol-level accusations are
    aggregated by the recovery drivers, which compare wire claims
    against realised per-machine outputs and exclude at most ``f``
    suspects per failed attempt (falling back to the leader when
    attribution is ambiguous — a lying leader can frame workers, but
    it cannot survive two consecutive failed attempts).

None of these layers is trusted for *correctness* of the ℓ-NN answer.
Correctness rides on an end-to-end invariant checked by the trusted
driver/session: every honest machine adopted the same boundary, and
the assembled answer has exactly ``min(ℓ, n)`` elements whose
per-machine sizes match the leader's accepted bookkeeping.  Any lie
that would corrupt the answer trips the invariant, and the attempt is
retried with the suspects excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Mapping

import numpy as np

from .errors import FaultError
from .machine import MachineContext
from .schema import Echo, SuspicionNotice

__all__ = [
    "ByzantineError",
    "ByzConfig",
    "SuspicionTracker",
    "suspicions",
    "aggregate_suspicions",
    "attribute_blame",
    "recv_from",
    "recv_upto",
    "serve_gather",
    "gather_quorum",
    "confirmed_broadcast",
    "receive_confirmed",
    "confirm_value",
    "median_of_reports",
    "robust_loads",
    "selection_iteration_cap",
]

#: Cap on stored accusation reasons per suspect (counts keep growing).
_MAX_REASONS = 16


class ByzantineError(FaultError):
    """A protocol aborted because quorum evidence implicates a liar.

    Subclasses :class:`~repro.kmachine.errors.FaultError` so the
    simulator re-raises it unwrapped and the recovery drivers can
    catch it alongside crash faults.  ``suspects`` carries the ranks
    the aborting machine accuses; the driver cross-checks them against
    aggregated suspicion before excluding anyone.
    """

    def __init__(self, message: str, suspects: Iterable[int] = ()) -> None:
        super().__init__(message)
        self.suspects: tuple[int, ...] = tuple(sorted(set(suspects)))


@dataclass(frozen=True)
class ByzConfig:
    """Byzantine hardening knobs threaded through a protocol run.

    ``f`` is the tolerated number of liars (``f = 0`` disables every
    hardened path — callers must branch to the plain protocol for
    zero overhead).  ``quarantined`` ranks still execute programs (the
    simulator has no way to unplug them) but are excluded from quorums,
    elections, pivot supply and placement decisions.
    """

    f: int
    quarantined: frozenset[int] = frozenset()
    timeout_rounds: int = 32

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError(f"byzantine f must be >= 0, got {self.f}")
        if self.timeout_rounds <= 0:
            raise ValueError("timeout_rounds must be positive")
        object.__setattr__(self, "quarantined", frozenset(self.quarantined))

    @property
    def confirm_timeout_rounds(self) -> int:
        """Wait budget for cross-confirmation echoes: peers may lag a
        full gather timeout behind before they echo."""
        return 2 * self.timeout_rounds + 4

    @property
    def op_timeout_rounds(self) -> int:
        """Wait budget for the next leader op: an honest leader can
        legitimately stall a direct-gather timeout plus an echo-gather
        timeout between ops when a liar goes silent."""
        return 4 * self.timeout_rounds + 8

    def op_budget(self, k: int) -> int:
        """Worker patience for the next leader op in a ``k``-machine run.

        Between two consecutive ops an honest leader may legitimately
        spend a pivot fetch plus a direct-gather timeout plus an
        *arrival-extended* echo gather — a silent liar that trickles
        its surviving echoes can stretch the latter to
        ``timeout + 2·k(k−1)`` rounds (each of up to ``k(k−1)``
        arrivals buys two more rounds of leader patience, see
        :func:`recv_upto`).  Accusing the leader any earlier convicts
        an honest machine for the liar's delays.
        """
        return 4 * self.timeout_rounds + 2 * k * (k - 1) + 8

    def validate(self, k: int) -> None:
        """Check the ``f < k/3`` quorum precondition for a ``k``-machine run."""
        if self.f > 0 and k < 3 * self.f + 1:
            raise ValueError(
                f"byzantine_f={self.f} needs k >= {3 * self.f + 1} machines, got {k}"
            )

    def live(self, k: int, *exclude: int) -> list[int]:
        """Non-quarantined ranks of a ``k``-machine run, minus ``exclude``."""
        skip = self.quarantined.union(exclude)
        return [r for r in range(k) if r not in skip]

    def workers(self, k: int, leader: int) -> list[int]:
        """Live ranks excluding the leader."""
        return self.live(k, leader)


@dataclass
class SuspicionTracker:
    """Per-machine accusation ledger.

    Accusations are *evidence*, not verdicts: a single tracker can be
    poisoned by a lying leader accusing honest workers, so exclusion
    decisions aggregate trackers across machines and cross-check
    against realised outputs (:func:`attribute_blame`).
    """

    counts: dict[int, int] = field(default_factory=dict)
    reasons: dict[int, list[str]] = field(default_factory=dict)

    def accuse(self, rank: int, reason: str) -> None:
        """Record one accusation against ``rank``."""
        self.counts[rank] = self.counts.get(rank, 0) + 1
        log = self.reasons.setdefault(rank, [])
        if len(log) < _MAX_REASONS:
            log.append(reason)

    def fold_notice(self, notice: SuspicionNotice) -> None:
        """Fold a broadcast :class:`SuspicionNotice` into the ledger."""
        self.accuse(int(notice.suspect), f"notice: {notice.reason}")

    def suspects(self) -> list[int]:
        """Accused ranks, most-accused first (ties by rank)."""
        return sorted(self.counts, key=lambda r: (-self.counts[r], r))


def suspicions(ctx: MachineContext) -> SuspicionTracker:
    """The context's suspicion tracker, created on first use.

    Attached lazily so the plain (``f = 0``) path never pays for it.
    """
    tracker = getattr(ctx, "_byz_suspicions", None)
    if tracker is None:
        tracker = SuspicionTracker()
        # byz-owned annotation on the context, not a simulator
        # internal: attached via setattr to mirror the getattr read.
        setattr(ctx, "_byz_suspicions", tracker)
    return tracker


def aggregate_suspicions(
    contexts: Iterable[MachineContext], exclude: frozenset[int] | set[int] = frozenset()
) -> dict[int, int]:
    """Sum accusation weights across machine contexts.

    The control plane (driver / session) calls this after a failed
    attempt; contexts are trusted because even a liar's *local* state
    is produced by honest code.
    """
    weights: dict[int, int] = {}
    for ctx in contexts:
        tracker = getattr(ctx, "_byz_suspicions", None)
        if tracker is None:
            continue
        for rank, count in tracker.counts.items():
            if rank in exclude:
                continue
            weights[rank] = weights.get(rank, 0) + count
    return weights


def attribute_blame(
    *,
    mismatch: Iterable[int],
    weights: Mapping[int, int],
    f: int,
    leader: int,
    repeat_offender: bool = False,
) -> tuple[int, ...]:
    """Decide whom a failed attempt should exclude.

    Layered rule: trust output-vs-claim ``mismatch`` ranks when there
    are between 1 and ``f`` of them (a liar cannot fake an honest
    machine's realised output); otherwise fall back to the heaviest
    aggregated suspicions; otherwise — and whenever more than ``f``
    machines are implicated, which no ``f``-liar adversary can cause
    against an honest leader — blame the leader, whose NIC is the only
    single point that can frame many workers at once.  Weights tied
    across the ``f``-th place implicate more than ``f`` machines too.
    ``repeat_offender`` adds the leader unconditionally (same leader
    presided over two consecutive failures).
    """
    cap = max(1, f)
    suspects = set(mismatch)
    if not suspects and weights:
        ranked = sorted(weights, key=lambda r: (-weights[r], r))
        suspects = set(ranked[:cap])
        if len(ranked) > cap and weights[ranked[cap]] == weights[ranked[cap - 1]]:
            # a tie across the cap: more than f machines are equally
            # implicated, so the weights single nobody out
            suspects = set(ranked)
    if not suspects or len(suspects) > cap:
        suspects = {leader}
    if repeat_offender:
        suspects.add(leader)
    return tuple(sorted(suspects))


# ----------------------------------------------------------------------
# Receive primitives tolerant of silence and stray traffic
# ----------------------------------------------------------------------

def recv_from(
    ctx: MachineContext,
    tag: str,
    srcs: Iterable[int],
    timeout_rounds: int,
) -> Generator[None, None, dict[int, Any]]:
    """Collect one payload from each of ``srcs``, tolerating silence.

    Unlike ``ctx.recv`` this never raises on missing or surplus
    traffic: it returns whatever arrived within ``timeout_rounds``
    (first message per source wins; messages from other sources on the
    same tag — e.g. a quarantined machine still chattering — are
    consumed and dropped).
    """
    want = set(srcs)
    got: dict[int, Any] = {}

    def pump() -> None:
        for msg in ctx.take(tag):
            if msg.src in want and msg.src not in got:
                got[msg.src] = msg.payload

    pump()
    waited = 0
    while len(got) < len(want) and waited < timeout_rounds:
        yield
        waited += 1
        pump()
    return got


def recv_upto(
    ctx: MachineContext,
    tag: str,
    expected: int,
    timeout_rounds: int,
    allowed: set[int] | None = None,
) -> Generator[None, None, list[Any]]:
    """Collect up to ``expected`` messages on ``tag``, tolerating silence.

    ``timeout_rounds`` is a *stall* budget: it resets whenever a round
    delivers at least one accepted message, so a bandwidth-limited
    multi-round gather is never cut off mid-stream — only a genuine
    silence of ``timeout_rounds`` consecutive empty rounds ends the
    wait.  The total wait is additionally capped at
    ``timeout_rounds + 2·len(got)``: every arrival buys two more
    rounds of patience, which a genuine stream (≥ one message every
    other round) sustains indefinitely, while an adversary trickling
    one message per ``timeout − 1`` rounds is cut after
    ``O(timeout + expected)`` rounds instead of stretching the gather
    without bound.  Returns the raw
    :class:`~repro.kmachine.message.Message` objects (callers need
    ``src`` for attribution), filtered to ``allowed`` sources when
    given.
    """
    got: list[Any] = []

    def pump() -> int:
        before = len(got)
        for msg in ctx.take(tag):
            if allowed is None or msg.src in allowed:
                got.append(msg)
        return len(got) - before

    pump()
    stalled = 0
    waited = 0
    while (
        len(got) < expected
        and stalled < timeout_rounds
        and waited < timeout_rounds + 2 * len(got)
    ):
        yield
        waited += 1
        stalled = 0 if pump() > 0 else stalled + 1
    return got


# ----------------------------------------------------------------------
# Quorum-verified gather (worker reports -> leader)
# ----------------------------------------------------------------------

def _freeze(value: Any) -> Any:
    """A hashable tally key for a payload (repr fallback for odd types)."""
    try:
        hash(value)
    except TypeError:
        return ("__repr__", repr(value))
    return value


def serve_gather(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    t_val: str,
    t_echo: str,
    payload: Any,
) -> Generator[None, None, None]:
    """Worker side of one quorum-verified gather.

    Broadcasts the report (the leader takes its copy directly), then
    relays every live peer's report to the leader as :class:`Echo`
    envelopes.  The redundancy is what lets the leader detect a peer
    that told it one count and the rest of the cluster another.
    """
    peers = [r for r in cfg.workers(ctx.k, leader) if r != ctx.rank]
    ctx.broadcast(t_val, payload)
    yield
    heard = yield from recv_from(ctx, t_val, peers, cfg.timeout_rounds)
    # lint: bound[k] — one echo per live peer
    for src, value in heard.items():
        ctx.send(leader, t_echo, Echo(origin=src, value=value))
    yield


def gather_quorum(
    ctx: MachineContext,
    cfg: ByzConfig,
    t_val: str,
    t_echo: str,
    tracker: SuspicionTracker,
) -> Generator[None, None, dict[int, Any]]:
    """Leader side of one quorum-verified gather.

    Resolves each live worker's report by plurality over its direct
    copy plus peer echoes.  Dissent of at most ``f`` observations is
    pinned on the dissenting *relayers*; wider dissent proves the
    *origin* equivocated its broadcast (no ``f``-liar relay set could
    produce it).  A fully silent origin resolves to ``None``.
    """
    workers = cfg.workers(ctx.k, ctx.rank)
    m = len(workers)
    direct = yield from recv_from(ctx, t_val, workers, cfg.timeout_rounds)
    echoes = yield from recv_upto(
        ctx, t_echo, m * (m - 1), cfg.timeout_rounds, allowed=set(workers)
    )
    observations: dict[int, list[tuple[int, Any]]] = {j: [] for j in workers}
    for j, value in direct.items():
        observations[j].append((j, value))
    for msg in echoes:
        env = msg.payload
        if not isinstance(env, Echo):
            continue
        j = int(env.origin)
        if j not in observations:
            continue
        if any(reporter == msg.src for reporter, _ in observations[j]):
            continue
        observations[j].append((msg.src, env.value))

    resolved: dict[int, Any] = {}
    for j in workers:
        obs = observations[j]
        if not obs:
            tracker.accuse(j, f"silent in gather {t_val}")
            resolved[j] = None
            continue
        tally: dict[Any, list[tuple[int, Any]]] = {}
        for reporter, value in obs:
            tally.setdefault(_freeze(value), []).append((reporter, value))
        best = max(tally, key=lambda key: (len(tally[key]), key == _freeze(direct.get(j))))
        supporters = tally[best]
        dissent = len(obs) - len(supporters)
        if dissent > cfg.f:
            tracker.accuse(j, f"equivocation in gather {t_val}")
        elif dissent:
            backers = {reporter for reporter, _ in supporters}
            for reporter, _ in obs:
                if reporter not in backers:
                    tracker.accuse(reporter, f"echo dissent in gather {t_val}")
        if j in direct and _freeze(direct[j]) != best:
            tracker.accuse(j, f"two-faced report in gather {t_val}")
        resolved[j] = supporters[0][1]
    return resolved


# ----------------------------------------------------------------------
# Confirmed broadcast (leader value -> all workers, cross-checked)
# ----------------------------------------------------------------------

def confirmed_broadcast(
    ctx: MachineContext, cfg: ByzConfig, t_out: str, payload: Any
) -> Generator[None, None, None]:
    """Leader side of a confirmed broadcast (workers cross-echo it)."""
    ctx.broadcast(t_out, payload)
    yield


def receive_confirmed(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    t_out: str,
    t_echo: str,
    tracker: SuspicionTracker,
    wait_rounds: int | None = None,
) -> Generator[None, None, Any]:
    """Worker side of a confirmed broadcast: adopt the quorum value.

    Every worker re-broadcasts what it heard to its live peers and
    adopts the plurality value once it has ``>= W - f`` support among
    ``W`` live workers.  A Byzantine leader equivocating to at most
    ``f`` recipients is silently corrected (the victims adopt the
    majority value and accuse the leader); a wider split cannot reach
    the threshold and aborts with the leader as suspect.
    """
    budget = cfg.timeout_rounds if wait_rounds is None else wait_rounds
    got = yield from recv_from(ctx, t_out, [leader], budget)
    if leader not in got:
        tracker.accuse(leader, f"silent broadcast {t_out}")
        raise ByzantineError(
            f"machine {ctx.rank}: leader {leader} silent on {t_out}",
            suspects=(leader,),
        )
    adopted = yield from confirm_value(
        ctx, leader, cfg, got[leader], t_echo, tracker
    )
    return adopted


def confirm_value(
    ctx: MachineContext,
    leader: int,
    cfg: ByzConfig,
    own: Any,
    t_echo: str,
    tracker: SuspicionTracker,
) -> Generator[None, None, Any]:
    """Cross-echo a value already received from the leader and adopt
    the quorum value (the confirmation half of
    :func:`receive_confirmed`, for protocols that learn the value
    through their own op stream).

    Exits as soon as one value accumulates a *decisive* quorum
    (``P − f`` of ``P`` participants): with ``k ≥ 3f + 1`` no
    competing value can ever catch up, so waiting for the stragglers'
    echoes buys nothing — and matters for liveness, because a silent
    liar would otherwise stall every honest worker for the full
    confirm budget while the leader races ahead into the next
    protocol phase.
    """
    peers = [r for r in cfg.workers(ctx.k, leader) if r != ctx.rank]
    ctx.send_to_many(peers, t_echo, Echo(origin=ctx.rank, value=own))
    yield
    peer_set = set(peers)
    threshold = max(1, len(peers) + 1 - cfg.f)
    views: dict[int, Any] = {ctx.rank: own}
    tally: dict[Any, list[tuple[int, Any]]] = {_freeze(own): [(ctx.rank, own)]}

    def pump() -> None:
        for msg in ctx.take(t_echo):
            if msg.src not in peer_set or msg.src in views:
                continue
            env = msg.payload
            if not isinstance(env, Echo):
                tracker.accuse(msg.src, f"malformed confirm echo {t_echo}")
                continue
            views[msg.src] = env.value
            tally.setdefault(_freeze(env.value), []).append((msg.src, env.value))

    def decisive() -> Any | None:
        for key, supporters in tally.items():
            if len(supporters) >= threshold:
                return key
        return None

    pump()
    waited = 0
    best = decisive()
    while best is None and len(views) < len(peers) + 1 and waited < cfg.confirm_timeout_rounds:
        yield
        waited += 1
        pump()
        best = decisive()
    if best is None:
        best = max(tally, key=lambda key: (len(tally[key]), key == _freeze(own)))
    supporters = tally[best]
    if len(supporters) < threshold:
        tracker.accuse(leader, f"equivocating broadcast {t_echo}")
        raise ByzantineError(
            f"machine {ctx.rank}: no {threshold}-quorum confirming {t_echo}",
            suspects=(leader,),
        )
    backers = {reporter for reporter, _ in supporters}
    for reporter in views:
        if reporter not in backers:
            tracker.accuse(reporter, f"dissent on broadcast {t_echo}")
    if _freeze(own) != best:
        tracker.accuse(leader, f"equivocated to me on {t_echo}")
    return supporters[0][1]


# ----------------------------------------------------------------------
# Robust reductions and termination bounds
# ----------------------------------------------------------------------

def median_of_reports(values: Iterable[float]) -> float:
    """Median of a report vector (0.0 when empty) — liar-resistant
    for any minority of arbitrary values."""
    arr = np.asarray(list(values), dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0
    return float(np.median(arr))


def robust_loads(loads: Iterable[float], f: int = 0) -> np.ndarray:
    """Median-anchored clipping of per-machine load reports.

    Negative / non-finite reports snap to 0 and anything above
    ``3 * median`` is clipped down, so an inflated or deflated report
    can skew a placement decision by at most a constant factor — it
    can no longer absorb or repel the whole update stream.
    """
    arr = np.asarray(list(loads), dtype=float).copy()
    arr[~np.isfinite(arr)] = 0.0
    arr = np.maximum(arr, 0.0)
    if arr.size:
        ceiling = 3.0 * max(median_of_reports(arr), 1.0)
        arr = np.minimum(arr, ceiling)
    return np.rint(arr).astype(np.int64)


def selection_iteration_cap(initial_count: int, k: int) -> int:
    """Hard iteration budget for hardened selection.

    Honest runs shrink the active multiset by an expected constant
    factor per iteration (``3 log_{3/2} s`` iterations whp); liars can
    waste iterations by forging pivots or stalling counts but each
    such machine is struck from the pivot supply after two stalls, so
    a generous affine-in-``k`` margin on top of the honest bound is
    enough.  Exceeding the cap is itself Byzantine evidence.
    """
    s0 = max(int(initial_count), 2)
    honest = 3.0 * (np.log(s0) / np.log(1.5))
    return int(np.ceil(honest)) + 2 * k + 16
