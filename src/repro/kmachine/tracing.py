"""Structured event tracing for protocol debugging.

A :class:`Tracer` records simulator events (round boundaries, sends,
deliveries, halts) as plain tuples so tests can assert on protocol
behaviour and humans can dump a readable transcript of small runs.
Tracing is off by default (it is the ``observe="trace"`` level) —
enabling it on million-point benchmarks would be both slow and
useless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["TraceEvent", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced simulator event.

    ``kind`` is one of ``"round"``, ``"send"``, ``"deliver"``,
    ``"halt"``, ``"drop"``, or a protocol-defined string; ``detail``
    holds kind-specific fields.  Fault injection (see
    :mod:`repro.kmachine.faults`) adds ``"crash"`` plus the
    ``"fault-*"`` family: ``"fault-drop"``, ``"fault-duplicate"``,
    ``"fault-corrupt"``, ``"fault-reorder"``, ``"fault-outage-drop"``
    and ``"fault-crash-drop"``.  The event stream is deterministic for
    a fixed ``(seed, FaultPlan)``, which the fault property tests use
    to pin replay fidelity.
    """

    round: int
    kind: str
    machine: int | None = None
    detail: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceEvent` records during a simulation.

    The simulator builds one for every ``observe="trace"`` run and
    keeps every event.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    @property
    def events(self) -> Sequence[TraceEvent]:
        """The recorded events, oldest first."""
        return self._events

    def record(self, round: int, kind: str, machine: int | None = None, **detail: Any) -> None:
        """Append one event."""
        self._events.append(
            TraceEvent(round=round, kind=kind, machine=machine, detail=detail)
        )

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def rounds_seen(self) -> int:
        """Highest round index any event carries, plus one."""
        return max((e.round for e in self.events), default=-1) + 1

    def format(self, kinds: Iterable[str] | None = None) -> str:
        """Human-readable transcript (optionally filtered by kind)."""
        wanted = set(kinds) if kinds is not None else None
        lines = []
        for e in self.events:
            if wanted is not None and e.kind not in wanted:
                continue
            who = f" m{e.machine}" if e.machine is not None else ""
            extras = " ".join(f"{k}={v!r}" for k, v in e.detail.items())
            lines.append(f"[r{e.round:>4}]{who} {e.kind}: {extras}")
        return "\n".join(lines)


class NullTracer:
    """No-op tracer used when tracing is disabled; records nothing."""

    enabled = False
    events: list[TraceEvent] = []

    def record(self, round: int, kind: str, machine: int | None = None, **detail: Any) -> None:
        """Discard the event."""

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Always empty."""
        return []

    def rounds_seen(self) -> int:
        """Always zero."""
        return 0

    def format(self, kinds: Iterable[str] | None = None) -> str:
        """Always empty."""
        return ""
