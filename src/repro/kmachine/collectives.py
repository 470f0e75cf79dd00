"""Collective operations built from point-to-point messages.

These are generator helpers meant to be invoked with ``yield from``
inside a program's ``run``.  They are *SPMD-symmetric*: every machine
calls the same helper with the same arguments (plus its own value),
and the helper internally branches on rank, so protocol code reads
like the MPI-style pseudocode in the paper.

On the k-machine clique the natural implementations are star-shaped:
a broadcast is ``k - 1`` direct sends from the root (1 round), a
gather is ``k - 1`` direct sends to the root (1 round when each value
fits in ``B`` bits).  This matches how the paper charges its leader's
query/reply steps: ``O(k)`` messages, ``O(1)`` rounds each.

Tag discipline: callers must ensure the ``tag`` they pass is not used
concurrently by another in-flight collective on the same machines;
protocols in :mod:`repro.core` derive tags from a phase name plus an
iteration counter.

These helpers assume reliable links (the model's default).  Under an
active :class:`~repro.kmachine.faults.FaultPlan` either run the whole
simulation with ``reliable=True`` (transparent ACK/retransmit — these
helpers then work unchanged) or use the explicit in-band variants
:func:`~repro.kmachine.reliable.reliable_send` /
:func:`~repro.kmachine.reliable.reliable_recv` /
:func:`~repro.kmachine.reliable.reliable_broadcast` /
:func:`~repro.kmachine.reliable.reliable_gather`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, TypeVar

from .machine import MachineContext

__all__ = [
    "broadcast",
    "gather",
    "tree_reduce",
]

T = TypeVar("T")


def broadcast(
    ctx: MachineContext, root: int, tag: str, payload: Any = None
) -> Generator[None, None, Any]:
    """Root sends ``payload`` to all; everyone returns the payload.

    One round, ``k - 1`` messages.  Non-root callers may pass any
    ``payload`` (ignored).
    """
    if ctx.rank == root:
        ctx.broadcast(tag, payload)
        yield
        return payload
    msg = yield from ctx.recv_one(tag, src=root)
    return msg.payload


def gather(
    ctx: MachineContext, root: int, tag: str, value: Any
) -> Generator[None, None, list[Any] | None]:
    """Everyone sends ``value`` to root; root returns the rank-indexed list.

    One round (when each value fits in ``B``), ``k - 1`` messages.
    Non-roots return ``None``.
    """
    if ctx.rank == root:
        msgs = yield from ctx.recv(tag, ctx.k - 1)
        values: list[Any] = [None] * ctx.k
        values[root] = value
        for msg in msgs:
            values[msg.src] = msg.payload
        return values
    ctx.send(root, tag, value)
    yield
    return None


def tree_reduce(
    ctx: MachineContext,
    root: int,
    tag: str,
    value: T,
    op: Callable[[T, T], T],
) -> Generator[None, None, T | None]:
    """Binomial-tree reduction: ⌈log₂ k⌉ rounds, k − 1 messages.

    Combines partial results pairwise up the tree, so every machine
    receives at most one message per round (the star gather lands
    k − 1 messages on the root in one round — a γ hotspot in the time
    model).  ``op`` must be associative; each receiver folds as
    ``op(own, received)`` in binomial-tree order, so a non-commutative
    ``op`` gives a fixed, seed-independent result.  Root returns the
    fold; others ``None``.
    """
    k = ctx.k
    v = (ctx.rank - root) % k
    accumulator = value
    mask = 1
    # lint: bound[log] — one tree level per doubling of mask
    while mask < k:
        if v & mask:
            ctx.send((v - mask + root) % k, tag, accumulator)
            yield
            # This machine's contribution is merged upstream; it only
            # idles through the remaining rounds.
            remaining = 0
            m = mask << 1
            while m < k:
                remaining += 1
                m <<= 1
            for _ in range(remaining):
                yield
            return None
        if v + mask < k:
            msg = yield from ctx.recv_one(tag, src=(v + mask + root) % k)
            accumulator = op(accumulator, msg.payload)
        else:
            yield
        mask <<= 1
    return accumulator
