"""Reliable delivery on top of the faulty k-machine network.

The fault injector (:mod:`repro.kmachine.faults`) turns the model's
perfect links into lossy ones; this module turns them back.  Two layers
are offered:

:class:`ReliableMachineContext` (transparent, the production path)
    A drop-in :class:`~repro.kmachine.machine.MachineContext` subclass
    the simulator substitutes when constructed with ``reliable=...``.
    Every :meth:`~ReliableMachineContext.send` wraps the payload in a
    sequence-numbered, checksummed :class:`Envelope`; delivery
    acknowledges each envelope, validates the checksum, suppresses
    duplicates, and unwraps the payload before it reaches the program's
    inbox — so *protocol code is completely unchanged*.  Unacknowledged
    envelopes are retransmitted every ``ack_timeout_rounds`` rounds
    (piggy-backed on the simulator's outbox drain, which keeps running
    even after a program's generator has returned) and give up with
    :class:`~repro.kmachine.errors.RetriesExhaustedError` after
    ``max_retries`` attempts.

In-band helpers (:func:`reliable_send` … :func:`reliable_gather`)
    Explicit generator wrappers for protocols that want reliability on
    a *plain* context for selected exchanges only.  The receiver
    "lingers" for a few rounds after completing, re-acknowledging
    duplicate arrivals so that a lost ACK does not strand the sender.

Both layers draw no randomness, so reliability never perturbs the
machine RNG streams and fault runs stay bit-for-bit reproducible.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from typing import Any, Generator, Iterable

import numpy as np

from .errors import PeerCrashedError, ProtocolError, RetriesExhaustedError
from .faults import CorruptedPayload
from .machine import MachineContext
from .message import Message
from .schema import wire_schema

__all__ = [
    "RELIABLE_ACK_TAG",
    "ReliabilityConfig",
    "Envelope",
    "ReliableMachineContext",
    "payload_checksum",
    "reliable_send",
    "reliable_recv",
    "reliable_broadcast",
    "reliable_gather",
]

#: Tag reserved for the transparent layer's acknowledgements.
RELIABLE_ACK_TAG = "__ack__"


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs for ACK/retransmit behaviour.

    Parameters
    ----------
    ack_timeout_rounds:
        Rounds a transmission may remain unacknowledged before it is
        retransmitted.  Must comfortably exceed the link's round-trip
        (2 rounds when uncongested; more under bandwidth queueing).
    max_retries:
        Retransmissions allowed per message before the layer raises
        :class:`~repro.kmachine.errors.RetriesExhaustedError`.  The
        end-to-end loss tolerance is roughly ``1 - p^(max_retries+1)``
        for per-message drop probability ``p``.
    checksum:
        Validate a CRC-32 of the payload on delivery; corrupted
        envelopes are discarded (no ACK) and recovered by
        retransmission.  With ``False`` corruption goes undetected.
    linger_rounds:
        How long the *in-band* receivers keep re-acknowledging
        duplicates after completing (defaults to ``ack_timeout_rounds``).
    """

    ack_timeout_rounds: int = 8
    max_retries: int = 8
    checksum: bool = True
    linger_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.ack_timeout_rounds < 1:
            raise ValueError("ack_timeout_rounds must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def effective_linger(self) -> int:
        """Linger window used by the in-band receivers."""
        return (
            self.linger_rounds
            if self.linger_rounds is not None
            else self.ack_timeout_rounds
        )


@wire_schema(description="reliable-layer wrapper: seq + checksum words around the payload")
@dataclass(slots=True)
class Envelope:
    """Wire wrapper added by the reliable layer: ``(seq, checksum, payload)``.

    ``seq`` is unique per ``(sender, receiver)`` pair; ``checksum`` is
    :func:`payload_checksum` of the payload (0 when checksums are off).
    The envelope's fields are sized structurally like any payload, so
    the layer's header overhead shows up honestly in bit accounting.
    """

    seq: int
    checksum: int
    payload: Any


# ----------------------------------------------------------------------
# checksums
# ----------------------------------------------------------------------
def _feed(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif isinstance(obj, (bool, np.bool_)):
        out += b"T" if obj else b"F"
    elif isinstance(obj, (int, np.integer)):
        out += b"i%d" % int(obj)
    elif isinstance(obj, (float, np.floating)):
        out += b"f" + struct.pack("<d", float(obj))
    elif isinstance(obj, str):
        out += b"s" + obj.encode("utf-8", "surrogatepass")
    elif isinstance(obj, (bytes, bytearray)):
        out += b"b" + bytes(obj)
    elif isinstance(obj, np.ndarray):
        out += b"a" + str(obj.dtype).encode() + str(obj.shape).encode()
        out += np.ascontiguousarray(obj).tobytes()
    elif isinstance(obj, (tuple, list)):
        out += b"(" if isinstance(obj, tuple) else b"["
        for item in obj:
            _feed(item, out)
        out += b")"
    elif isinstance(obj, dict):
        out += b"{"
        for key in sorted(obj, key=repr):
            _feed(key, out)
            _feed(obj[key], out)
        out += b"}"
    else:
        # Dataclasses and ad-hoc objects: structural fields if visible,
        # else their (deterministic) repr.
        fields = getattr(obj, "__dict__", None)
        slots = getattr(type(obj), "__slots__", None)
        if fields:
            out += b"o" + type(obj).__name__.encode()
            _feed(dict(fields), out)
        elif slots:
            out += b"o" + type(obj).__name__.encode()
            _feed({name: getattr(obj, name) for name in slots}, out)
        else:
            out += b"r" + repr(obj).encode()


def payload_checksum(payload: Any) -> int:
    """CRC-32 over a canonical recursive encoding of ``payload``.

    Deterministic across runs and processes for the payload types the
    protocols use (ints, floats, strings, tuples/lists/dicts, numpy
    arrays, simple dataclasses).  Used by the reliable layer to detect
    in-transit corruption.
    """
    buf = bytearray()
    _feed(payload, buf)
    return zlib.crc32(bytes(buf)) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# transparent layer
# ----------------------------------------------------------------------
class _Pending:
    """Book-keeping for one unacknowledged transmission."""

    __slots__ = ("message", "last_sent_round", "attempts")

    def __init__(self, message: Message, last_sent_round: int) -> None:
        self.message = message
        self.last_sent_round = last_sent_round
        self.attempts = 1


class ReliableMachineContext(MachineContext):
    """Machine context with transparent ACK/retransmit + dedup + checksum.

    Substituted for :class:`MachineContext` by the simulator when
    ``reliable`` is requested.  Programs notice nothing: payloads are
    wrapped on :meth:`send` and unwrapped in :meth:`deliver`; ACK
    traffic uses the reserved :data:`RELIABLE_ACK_TAG` and never enters
    the program-visible inbox.

    The simulator keeps calling :meth:`deliver` and
    :meth:`drain_outbox` after the program's generator returns (see
    :attr:`post_halt_delivery`), so a halted machine still
    acknowledges late arrivals and retransmits its own tail — without
    that, the final message of every protocol would be unprotected.
    """

    #: Ask the simulator to keep delivering to this context after its
    #: generator halts (needed so ACKs keep flowing both ways).
    post_halt_delivery = True

    def __init__(self, *args: Any, reliability: ReliabilityConfig | None = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.reliability = reliability or ReliabilityConfig()
        self._next_seq: dict[int, int] = {}
        self._unacked: dict[tuple[int, int], _Pending] = {}
        self._seen: dict[int, set[int]] = {}
        #: reliable-layer counters, folded into Metrics by the simulator
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0
        self.checksum_failures = 0

    # -- sending -------------------------------------------------------
    def send(self, dst: int, tag: str, payload: Any = None) -> None:
        """Envelope, register for retransmission, then queue as usual."""
        if tag == RELIABLE_ACK_TAG:
            super().send(dst, tag, payload)
            return
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        checksum = payload_checksum(payload) if self.reliability.checksum else 0
        super().send(dst, tag, Envelope(seq, checksum, payload))
        self._unacked[(dst, seq)] = _Pending(self._outbox[-1], self.round)

    def broadcast(self, tag: str, payload: Any = None) -> None:
        """One enveloped :meth:`send` per peer (each has its own sequence)."""
        for dst in range(self.k):
            if dst != self.rank:
                self.send(dst, tag, payload)

    def drain_outbox(self) -> list[Message]:
        """Retransmit overdue unacknowledged messages, then drain."""
        cfg = self.reliability
        for (dst, seq), pending in sorted(self._unacked.items()):
            if self.round - pending.last_sent_round < cfg.ack_timeout_rounds:
                continue
            if pending.attempts > cfg.max_retries:
                raise RetriesExhaustedError(
                    self.rank, dst, pending.message.tag, pending.attempts
                )
            self._outbox.append(replace(pending.message, sent_round=self.round))
            pending.attempts += 1
            pending.last_sent_round = self.round
            self.retransmissions += 1
        return super().drain_outbox()

    def unacked_count(self) -> int:
        """Transmissions still awaiting an ACK (test/debug helper)."""
        return len(self._unacked)

    # -- receiving -----------------------------------------------------
    def deliver(self, messages: Iterable[Message]) -> None:
        """Consume ACKs, validate/ack/dedup envelopes, unwrap payloads."""
        cfg = self.reliability
        accepted: list[Message] = []
        for msg in messages:
            if msg.tag == RELIABLE_ACK_TAG:
                if isinstance(msg.payload, CorruptedPayload):
                    continue  # mangled ACK; sender will retransmit, we re-ack
                self._unacked.pop((msg.src, msg.payload), None)
                continue
            payload = msg.payload
            corrupted = isinstance(payload, CorruptedPayload)
            env = payload.original if corrupted else payload
            if not isinstance(env, Envelope):
                accepted.append(msg)  # unprotected traffic passes through
                continue
            if cfg.checksum and (
                corrupted or payload_checksum(env.payload) != env.checksum
            ):
                # Discard without ACK; the sender's retransmission is
                # the recovery path.
                self.checksum_failures += 1
                continue
            super().send(msg.src, RELIABLE_ACK_TAG, env.seq)
            self.acks_sent += 1
            seen = self._seen.setdefault(msg.src, set())
            if env.seq in seen:
                self.duplicates_suppressed += 1
                continue
            seen.add(env.seq)
            delivered = CorruptedPayload(env.payload) if corrupted else env.payload
            accepted.append(replace(msg, payload=delivered))
        super().deliver(accepted)

    def notice_crash(self, rank: int) -> None:
        """Cancel retransmissions to a crashed peer; they cannot ACK."""
        super().notice_crash(rank)
        for key in [k for k in self._unacked if k[0] == rank]:
            del self._unacked[key]


# ----------------------------------------------------------------------
# in-band helpers (for plain contexts)
# ----------------------------------------------------------------------
def _inband_seq(ctx: MachineContext, dst: int) -> int:
    counters = getattr(ctx, "_inband_seq", None)
    if counters is None:
        counters = {}
        # reliable-layer annotation on the context, not a simulator
        # internal: attached via setattr to mirror the getattr read.
        setattr(ctx, "_inband_seq", counters)
    seq = counters.get(dst, 0)
    counters[dst] = seq + 1
    return seq


def _ack_tag(tag: str) -> str:
    return f"{RELIABLE_ACK_TAG}:{tag}"


def _valid_envelope(msg: Message, checksum: bool) -> Envelope | None:
    """The message's envelope if intact, else ``None`` (drop, no ACK)."""
    payload = msg.payload
    if isinstance(payload, CorruptedPayload):
        if checksum:
            return None
        payload = payload.original
    if not isinstance(payload, Envelope):
        return None
    if checksum and payload_checksum(payload.payload) != payload.checksum:
        return None
    return payload


def reliable_send(
    ctx: MachineContext,
    dst: int,
    tag: str,
    payload: Any = None,
    *,
    config: ReliabilityConfig | None = None,
) -> Generator[None, None, None]:
    """Generator: send to ``dst`` and wait for its ACK, retransmitting.

    ``yield from reliable_send(ctx, dst, tag, payload)`` returns once
    the receiver (running :func:`reliable_recv` on ``tag``) has
    acknowledged; raises
    :class:`~repro.kmachine.errors.RetriesExhaustedError` after
    ``max_retries`` unacknowledged retransmissions, or
    :class:`~repro.kmachine.errors.PeerCrashedError` if ``dst`` is
    reported crashed while waiting.
    """
    cfg = config or ReliabilityConfig()
    seq = _inband_seq(ctx, dst)
    checksum = payload_checksum(payload) if cfg.checksum else 0
    attempts = 0
    while True:
        if dst in ctx.crashed_peers:
            raise PeerCrashedError(ctx.rank, ctx.crashed_peers,
                                   f"reliable_send({tag!r}) target crashed")
        if attempts > cfg.max_retries:
            raise RetriesExhaustedError(ctx.rank, dst, tag, attempts)
        ctx.send(dst, tag, Envelope(seq, checksum, payload))
        attempts += 1
        for _ in range(cfg.ack_timeout_rounds):
            yield
            if any(a.payload == seq for a in ctx.take(_ack_tag(tag), src=dst)):
                return
            if dst in ctx.crashed_peers:
                raise PeerCrashedError(ctx.rank, ctx.crashed_peers,
                                       f"reliable_send({tag!r}) target crashed")


def reliable_recv(
    ctx: MachineContext,
    tag: str,
    count: int,
    src: int | None = None,
    *,
    config: ReliabilityConfig | None = None,
) -> Generator[None, None, list[Message]]:
    """Generator: reliably receive ``count`` messages with ``tag``.

    Acknowledges every intact arrival (duplicates included),
    deduplicates by ``(src, seq)``, and returns unwrapped messages.
    After completing it lingers for ``linger_rounds``, continuing to
    re-acknowledge stragglers so a lost ACK cannot strand a sender in
    its retry loop.  Raises
    :class:`~repro.kmachine.errors.PeerCrashedError` if a relevant
    peer crashes while the receive is short — peers *already* known to
    be crashed when the receive starts are tolerated (callers such as
    :func:`reliable_gather` have excluded them from ``count``); an
    explicit ``src`` that is crashed always aborts.
    """
    cfg = config or ReliabilityConfig()
    known_crashed = set(ctx.crashed_peers)
    got: list[Message] = []
    seen: set[tuple[int, int]] = set()

    def absorb() -> None:
        for msg in ctx.take(tag, src):
            env = _valid_envelope(msg, cfg.checksum)
            if env is None:
                continue
            ctx.send(msg.src, _ack_tag(tag), env.seq)
            if (msg.src, env.seq) in seen:
                continue
            seen.add((msg.src, env.seq))
            got.append(replace(msg, payload=env.payload))

    absorb()
    while len(got) < count:
        fatal = (
            ctx.crashed_peers & {src}
            if src is not None
            else ctx.crashed_peers - known_crashed
        )
        if fatal:
            raise PeerCrashedError(ctx.rank, ctx.crashed_peers,
                                   f"reliable_recv({tag!r}) short at {len(got)}/{count}")
        yield
        absorb()
    if len(got) > count:
        raise ProtocolError(
            f"machine {ctx.rank} expected {count} {tag!r} messages, got {len(got)}"
        )
    for _ in range(cfg.effective_linger):
        yield
        for msg in ctx.take(tag, src):
            env = _valid_envelope(msg, cfg.checksum)
            if env is not None:
                ctx.send(msg.src, _ack_tag(tag), env.seq)
    return got


def reliable_broadcast(
    ctx: MachineContext,
    tag: str,
    payload: Any = None,
    *,
    config: ReliabilityConfig | None = None,
) -> Generator[None, None, None]:
    """Generator: reliably send ``payload`` to every live peer.

    Retransmits per destination independently; peers reported crashed
    (before or during the broadcast) are skipped rather than failing
    the whole operation.
    """
    cfg = config or ReliabilityConfig()
    targets = [d for d in range(ctx.k) if d != ctx.rank and d not in ctx.crashed_peers]
    state: dict[int, tuple[int, int, int]] = {}  # dst -> (seq, attempts, sent_round)
    for dst in targets:
        seq = _inband_seq(ctx, dst)
        checksum = payload_checksum(payload) if cfg.checksum else 0
        ctx.send(dst, tag, Envelope(seq, checksum, payload))
        state[dst] = (seq, 1, ctx.round)
    while state:
        yield
        for ack in ctx.take(_ack_tag(tag)):
            entry = state.get(ack.src)
            if entry is not None and ack.payload == entry[0]:
                del state[ack.src]
        for dst in [d for d in state if d in ctx.crashed_peers]:
            del state[dst]
        for dst, (seq, attempts, sent_round) in sorted(state.items()):
            if ctx.round - sent_round < cfg.ack_timeout_rounds:
                continue
            if attempts > cfg.max_retries:
                raise RetriesExhaustedError(ctx.rank, dst, tag, attempts)
            checksum = payload_checksum(payload) if cfg.checksum else 0
            ctx.send(dst, tag, Envelope(seq, checksum, payload))
            state[dst] = (seq, attempts + 1, ctx.round)


def reliable_gather(
    ctx: MachineContext,
    leader: int,
    tag: str,
    payload: Any = None,
    *,
    config: ReliabilityConfig | None = None,
) -> Generator[None, None, list[Any] | None]:
    """Generator: reliably gather one payload per live peer at ``leader``.

    Non-leaders reliably send ``payload`` and return ``None``; the
    leader returns the gathered payloads ordered by source rank (its
    own ``payload`` included).  Peers the leader already knows to be
    crashed are excluded from the expected count.
    """
    cfg = config or ReliabilityConfig()
    if ctx.rank != leader:
        yield from reliable_send(ctx, leader, tag, payload, config=cfg)
        return None
    expected = ctx.k - 1 - len(ctx.crashed_peers)
    msgs = yield from reliable_recv(ctx, tag, expected, config=cfg)
    by_src = {m.src: m.payload for m in msgs}
    by_src[ctx.rank] = payload
    return [by_src[r] for r in sorted(by_src)]
