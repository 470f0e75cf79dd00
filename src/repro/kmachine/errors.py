"""Exception types raised by the k-machine model simulator.

All simulator errors derive from :class:`KMachineError` so callers can
catch simulator failures without masking ordinary Python bugs inside
protocol code.
"""

from __future__ import annotations

__all__ = [
    "KMachineError",
    "BandwidthExceededError",
    "DeadlockError",
    "ProtocolError",
    "AddressError",
    "FaultError",
    "PeerCrashedError",
    "RetriesExhaustedError",
]


class KMachineError(Exception):
    """Base class for all errors raised by :mod:`repro.kmachine`."""


class BandwidthExceededError(KMachineError):
    """A message was submitted that violates the link bandwidth policy.

    Raised only under the ``strict`` bandwidth policy, where a protocol
    is required never to enqueue more than ``B`` bits on a link in a
    single round.  Under the default ``queue`` policy, excess traffic is
    queued and drained at ``B`` bits per round instead (which is how the
    paper's Θ(ℓ)-round cost of the simple method arises mechanically).
    """


class DeadlockError(KMachineError):
    """The simulation exceeded ``max_rounds`` without terminating.

    This almost always means a protocol is waiting for a message that
    is never sent (e.g. mismatched tags or a miscounted gather).
    """


class ProtocolError(KMachineError):
    """A protocol violated an invariant of the k-machine model.

    Examples: a machine addressed a message to itself, a program
    produced no generator, or a program left the simulation while
    peers still expect replies from it.
    """


class AddressError(KMachineError):
    """A message was addressed to a machine rank outside ``[0, k)``."""


class FaultError(KMachineError):
    """Base class for failures caused by *injected* faults.

    The simulator re-raises these without wrapping them in
    :class:`ProtocolError`, so supervisors (the recovery loop in
    :mod:`repro.core.driver`) can distinguish "the environment failed"
    from "the protocol has a bug" and react by re-electing/retrying
    instead of crashing.
    """


class PeerCrashedError(FaultError):
    """A machine gave up waiting because a peer it depends on crashed.

    Raised from :meth:`repro.kmachine.machine.MachineContext.recv` when
    a crash notification (the model's synchronous failure detector) has
    been delivered and the pending receive can no longer complete.

    Attributes
    ----------
    rank:
        The waiting machine's rank.
    crashed:
        The crashed peers the machine knows about, sorted.
    """

    def __init__(self, rank: int, crashed: "frozenset[int] | set[int]", detail: str = "") -> None:
        self.rank = rank
        self.crashed = tuple(sorted(crashed))
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"machine {rank} aborted a receive: peers {list(self.crashed)} crashed{suffix}"
        )


class RetriesExhaustedError(FaultError):
    """The reliable layer gave up retransmitting an unacknowledged message.

    Raised after ``max_retries`` retransmissions each went unacknowledged
    for ``ack_timeout_rounds`` rounds (see
    :class:`repro.kmachine.reliable.ReliabilityConfig`).  Under the
    supervised drivers this aborts the attempt and triggers recovery.
    """

    def __init__(self, src: int, dst: int, tag: str, attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.attempts = attempts
        super().__init__(
            f"machine {src} exhausted {attempts} transmissions of {tag!r} "
            f"to machine {dst} without an ACK"
        )
