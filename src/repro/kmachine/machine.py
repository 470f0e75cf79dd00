"""Machine-side programming model: contexts, programs, receive helpers.

Protocols in this reproduction are written as *generator programs*: a
:class:`Program` subclass implements ``run(ctx)`` as a generator, and
every bare ``yield`` ends the machine's current round.  Messages sent
with :meth:`MachineContext.send` during round ``t`` are delivered to
destination inboxes at the start of round ``t + 1`` (subject to link
bandwidth).  This mirrors how synchronous message-passing algorithms
are written on paper, while the :class:`repro.kmachine.simulator.
Simulator` owns scheduling, delivery and accounting.

A minimal echo program::

    class Echo(Program):
        def run(self, ctx):
            if ctx.rank == 0:
                ctx.send(1, "ping", 42)
                yield                       # round ends; message in flight
            else:
                msgs = yield from ctx.recv("ping", 1)
                ctx.send(0, "pong", msgs[0].payload)
                yield
            return None
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Iterable

import numpy as np

from .errors import AddressError, PeerCrashedError, ProtocolError
from .message import Message
from .sizing import SizingPolicy

__all__ = ["MachineContext", "Program", "FunctionProgram", "NullObs", "NULL_OBS"]


class _NullSpan:
    """Reusable no-op context manager handed out by :class:`NullObs`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObs:
    """No-op observability handle; the default value of ``ctx.obs``.

    Protocol code instruments phases with ``with ctx.obs.span("name"):``
    unconditionally; when the simulation was not asked to record spans
    this stub swallows the calls at negligible cost.  The real
    implementation (:class:`repro.obs.spans.MachineObs`) duck-types
    this interface — it lives in :mod:`repro.obs` so the core machine
    model stays free of observability imports.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        """Return a shared no-op context manager."""
        return _NULL_SPAN

    def event(self, name: str, **detail: Any) -> None:
        """Discard the event."""


#: Shared stateless singleton used as every context's default ``obs``.
NULL_OBS = NullObs()


class MachineContext:
    """Per-machine view of the k-machine world.

    Created by the simulator, one per machine, and handed to the
    program's ``run``.  Exposes the machine's rank, the machine count,
    a private RNG stream, the local input, and the messaging API.

    Attributes
    ----------
    rank:
        This machine's index in ``[0, k)``.
    k:
        Total number of machines.
    rng:
        Private :class:`numpy.random.Generator` (the paper's private
        source of random bits).
    local:
        The local input assigned to this machine (any object; for the
        KNN protocols it is a point array or value array).
    round:
        Current round index, maintained by the simulator (0-based).
    machine_id:
        A random unique identifier, used by leader election.  Distinct
        across machines with high probability (drawn from ``[1, k^3]``
        by the simulator, re-drawn on collision).
    """

    def __init__(
        self,
        rank: int,
        k: int,
        rng: np.random.Generator,
        local: Any = None,
        machine_id: int | None = None,
        sizing: SizingPolicy | None = None,
    ) -> None:
        if not 0 <= rank < k:
            raise ValueError(f"rank {rank} outside [0, {k})")
        self.rank = rank
        self.k = k
        self.rng = rng
        self.local = local
        self.machine_id = machine_id if machine_id is not None else rank + 1
        self.round = 0
        self.sizing = sizing or SizingPolicy()
        #: messages queued for dispatch at the end of the current round
        self._outbox: list[Message] = []
        #: messages delivered but not yet consumed by :meth:`take`, per
        #: tag as ``(arrival_seq, message)`` in arrival order; a tag
        #: whose messages are all consumed is removed
        self._inbox: dict[str, list[tuple[int, Message]]] = {}
        #: arrival sequence number of the next delivered message
        self._arrivals = 0
        self._pending_count = 0
        #: scratch area for program results, also returned by the simulator
        self.result: Any = None
        #: count of messages this machine has sent (for metric assertions)
        self.sent_messages = 0
        self.sent_bits = 0
        #: peers this machine has been notified are crashed (fault model's
        #: synchronous failure detector; empty in fault-free runs)
        self.crashed_peers: set[int] = set()
        #: observability handle — a no-op unless the simulator was
        #: constructed with ``spans=True`` (see :mod:`repro.obs`)
        self.obs: Any = NULL_OBS

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, dst: int, tag: str, payload: Any = None) -> None:
        """Queue a message for delivery to machine ``dst`` next round.

        Self-sends are a protocol error: in the k-machine model a
        machine's communication with itself is free local computation,
        so any state handoff to oneself should be a local variable.
        """
        if dst == self.rank:
            raise ProtocolError(f"machine {self.rank} attempted to send to itself")
        if not 0 <= dst < self.k:
            raise AddressError(f"destination {dst} outside [0, {self.k})")
        bits = self.sizing.measure(payload) + self.sizing.header_bits
        self._outbox.append(
            Message(src=self.rank, dst=dst, tag=tag, payload=payload, bits=bits,
                    sent_round=self.round)
        )
        self.sent_messages += 1
        self.sent_bits += bits

    def broadcast(self, tag: str, payload: Any = None) -> None:
        """Send ``payload`` to every other machine (``k - 1`` messages).

        On the complete topology of the k-machine model a broadcast is
        one round and ``k - 1`` messages, exactly as the paper charges
        for the leader's query messages.
        """
        for dst in range(self.k):
            if dst != self.rank:
                self.send(dst, tag, payload)

    def send_to_many(self, dsts: Iterable[int], tag: str, payload: Any = None) -> None:
        """Send the same payload to each destination rank in ``dsts``."""
        for dst in dsts:
            self.send(dst, tag, payload)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def deliver(self, messages: Iterable[Message]) -> None:
        """(Simulator hook) append newly arrived messages to the buffer."""
        inbox = self._inbox
        seq = self._arrivals
        for msg in messages:
            box = inbox.get(msg.tag)
            if box is None:
                inbox[msg.tag] = [(seq, msg)]
            else:
                box.append((seq, msg))
            seq += 1
        self._pending_count += seq - self._arrivals
        self._arrivals = seq

    def notice_crash(self, rank: int) -> None:
        """(Simulator hook) record that peer ``rank`` crashed.

        Subsequent receives that can no longer complete raise
        :class:`~repro.kmachine.errors.PeerCrashedError` instead of
        waiting forever (see :meth:`recv`).
        """
        self.crashed_peers.add(rank)

    def take(self, tag: str | None = None, src: int | None = None) -> list[Message]:
        """Pop and return buffered messages matching ``tag`` and ``src``.

        ``None`` matches anything.  Non-matching messages stay buffered
        so concurrent sub-protocols cannot steal each other's traffic.
        Matches come back in arrival order; a tagged take touches only
        that tag's messages.
        """
        if tag is None:
            matched = [msg for _, msg in self._merged() if src is None or msg.src == src]
            if src is None:
                self._inbox.clear()
            else:
                for t in list(self._inbox):
                    self._keep(t, src)
            self._pending_count -= len(matched)
            return matched
        box = self._inbox.get(tag)
        if box is None:
            return []
        if src is None:
            del self._inbox[tag]
            matched = [msg for _, msg in box]
        else:
            matched = [msg for _, msg in box if msg.src == src]
            if matched:
                self._keep(tag, src)
        self._pending_count -= len(matched)
        return matched

    def _keep(self, tag: str, src: int) -> None:
        """Drop ``src``'s messages from ``tag``'s buffer."""
        kept = [entry for entry in self._inbox[tag] if entry[1].src != src]
        if kept:
            self._inbox[tag] = kept
        else:
            del self._inbox[tag]

    def _merged(self) -> list[tuple[int, Message]]:
        """Every buffered ``(arrival_seq, message)``, in arrival order."""
        return sorted(entry for box in self._inbox.values() for entry in box)

    def peek_pending(self) -> tuple[Message, ...]:
        """Return (without consuming) all currently buffered messages."""
        return tuple(msg for _, msg in self._merged())

    def discard_pending(self) -> int:
        """Drop every buffered message; returns how many were dropped."""
        dropped = self._pending_count
        self._inbox.clear()
        self._pending_count = 0
        return dropped

    def recv(
        self, tag: str, count: int, src: int | None = None, max_rounds: int | None = None
    ) -> Generator[None, None, list[Message]]:
        """Generator: wait until ``count`` messages with ``tag`` arrive.

        Use as ``msgs = yield from ctx.recv("reply", k - 1)``.  Each
        iteration that comes up short ends the round with a ``yield``.
        ``max_rounds`` bounds the wait (raising :class:`ProtocolError`
        on expiry); protocols pass a timeout when they want
        missed-heartbeat-style failure detection, otherwise they rely
        on the simulator's global ``max_rounds`` deadlock guard.

        Crash awareness: if a crash notification has arrived (see
        :meth:`notice_crash`) and the receive is still short, waiting
        is hopeless — for a ``src``-specific receive when that peer
        crashed, and conservatively for any count-based receive (the
        expected count almost always includes the crashed peer) —
        so :class:`~repro.kmachine.errors.PeerCrashedError` is raised
        for the supervisor to handle.
        """
        got = self.take(tag, src)
        waited = 0
        while len(got) < count:
            if self.crashed_peers and (src is None or src in self.crashed_peers):
                raise PeerCrashedError(
                    self.rank,
                    self.crashed_peers,
                    f"waiting for {count} {tag!r} messages, have {len(got)}",
                )
            yield
            waited += 1
            if max_rounds is not None and waited >= max_rounds:
                raise ProtocolError(
                    f"machine {self.rank} waited {waited} rounds for {count} "
                    f"{tag!r} messages but only has {len(got)}"
                )
            got.extend(self.take(tag, src))
        if len(got) > count:
            raise ProtocolError(
                f"machine {self.rank} expected {count} {tag!r} messages, got {len(got)}"
            )
        return got

    def recv_one(
        self, tag: str, src: int | None = None, max_rounds: int | None = None
    ) -> Generator[None, None, Message]:
        """Generator: wait for exactly one message with ``tag``."""
        msgs = yield from self.recv(tag, 1, src=src, max_rounds=max_rounds)
        return msgs[0]

    # ------------------------------------------------------------------
    # simulator hooks
    # ------------------------------------------------------------------
    def drain_outbox(self) -> list[Message]:
        """(Simulator hook) remove and return messages queued this round."""
        out, self._outbox = self._outbox, []
        return out

    def pending_count(self) -> int:
        """Number of delivered-but-unconsumed messages (test helper)."""
        return self._pending_count


class Program:
    """Base class for SPMD programs in the k-machine model.

    Subclasses implement :meth:`run` as a generator.  The same program
    object is shared across machines (it must therefore be stateless or
    treat its attributes as read-only configuration); all mutable
    per-machine state lives in local variables of ``run`` or on ``ctx``.

    The generator's *return value* becomes the machine's output,
    available as ``SimulationResult.outputs[rank]``.
    """

    #: Human-readable protocol name used in traces and metrics.
    name: str = "program"

    def run(self, ctx: MachineContext) -> Generator[None, None, Any]:
        """Per-machine program body; must be a generator."""
        raise NotImplementedError

    def instantiate(self, ctx: MachineContext) -> Generator[None, None, Any]:
        """Create the generator for one machine, validating it is one."""
        gen = self.run(ctx)
        if not isinstance(gen, Generator):
            raise ProtocolError(
                f"{type(self).__name__}.run must be a generator function "
                f"(got {type(gen).__name__}); add a 'yield' even if unreachable"
            )
        return gen


class FunctionProgram(Program):
    """Adapter wrapping a plain generator function as a :class:`Program`.

    Handy in tests and examples::

        def pingpong(ctx):
            ...
            yield

        sim = Simulator(k=2, program=FunctionProgram(pingpong))
    """

    _counter = itertools.count()

    def __init__(
        self, fn: Callable[[MachineContext], Generator], name: str | None = None
    ) -> None:
        self._fn = fn
        self.name = name or getattr(fn, "__name__", f"fn{next(self._counter)}")

    def run(self, ctx: MachineContext) -> Generator[None, None, Any]:
        """Delegate to the wrapped generator function."""
        return self._fn(ctx)
