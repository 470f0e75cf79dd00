"""Hierarchical, round-clocked spans over protocol phases.

A *span* marks one protocol phase on one machine — election, local
prune, sampling, threshold broadcast, selection — and snapshots the
simulation's :class:`~repro.kmachine.metrics.Metrics` counters at
entry and exit, so its delta says exactly how many rounds, messages
and bits that phase spent.  Protocol code opens spans through the
context it already holds::

    with ctx.obs.span("sampling"):
        ... sends / yields / recvs ...

``ctx.obs`` is a no-op by default (see
:class:`repro.kmachine.machine.NullObs`), so instrumented protocols
run unchanged — and unmeasured — outside an instrumented simulation.
Passing ``observe="spans"`` (or any higher level) to
:class:`~repro.kmachine.simulator.Simulator` attaches a
:class:`SpanRecorder` and the same ``with`` blocks start producing
data.

The clock is the *round index*, not wall time: the k-machine model's
time is rounds, and the paper's theorems bound rounds, so that is what
the spans (and the Chrome-trace export built on them) count.

Because the simulator steps machine generators one at a time, a span
held across ``yield`` boundaries is perfectly well defined: the entry
snapshot is taken when the generator enters the ``with`` block in some
round, the exit snapshot when it leaves it rounds later.  Snapshots
read the run's *global* counters, so one machine's span window
attributes everything the whole system spent while that machine was in
the phase — which is the honest cost of a synchronized SPMD phase.
For attribution reports, use one machine's spans (normally the
leader's); per-machine top-level spans never overlap, so their deltas
sum without double counting (see :func:`phase_attribution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kmachine.metrics import Metrics
    from ..kmachine.tracing import NullTracer, Tracer

__all__ = [
    "Span",
    "SpanRecorder",
    "MachineObs",
    "PhaseAttribution",
    "phase_attribution",
]


@dataclass
class Span:
    """One protocol phase on one machine, with entry/exit snapshots.

    ``start_*``/``end_*`` are snapshots of the run's cumulative
    counters; the ``rounds``/``messages``/``bits``/``sim_seconds``
    properties expose the deltas.  ``end_*`` stay ``None`` while the
    span is open (e.g. inspected mid-run or after an aborted run).
    """

    name: str
    machine: int
    index: int
    parent: int | None
    depth: int
    start_round: int
    start_messages: int
    start_bits: int
    start_sim_seconds: float
    end_round: int | None = None
    end_messages: int | None = None
    end_bits: int | None = None
    end_sim_seconds: float | None = None

    @property
    def closed(self) -> bool:
        """Whether the exit snapshot has been taken."""
        return self.end_round is not None

    @property
    def rounds(self) -> int:
        """Rounds elapsed inside the span (0 while open)."""
        return 0 if self.end_round is None else self.end_round - self.start_round

    @property
    def messages(self) -> int:
        """Messages the whole system sent during the span window."""
        return 0 if self.end_messages is None else self.end_messages - self.start_messages

    @property
    def bits(self) -> int:
        """Bits the whole system sent during the span window."""
        return 0 if self.end_bits is None else self.end_bits - self.start_bits

    @property
    def sim_seconds(self) -> float:
        """Modelled wall-clock spent during the span window."""
        if self.end_sim_seconds is None:
            return 0.0
        return self.end_sim_seconds - self.start_sim_seconds

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by the exporters and the runtime)."""
        return {
            "name": self.name,
            "machine": self.machine,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start_round": self.start_round,
            "end_round": self.end_round,
            "start_messages": self.start_messages,
            "end_messages": self.end_messages,
            "start_bits": self.start_bits,
            "end_bits": self.end_bits,
            "start_sim_seconds": self.start_sim_seconds,
            "end_sim_seconds": self.end_sim_seconds,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        return cls(
            name=d["name"],
            machine=int(d["machine"]),
            index=int(d["index"]),
            parent=None if d.get("parent") is None else int(d["parent"]),
            depth=int(d.get("depth", 0)),
            start_round=int(d["start_round"]),
            start_messages=int(d.get("start_messages", 0)),
            start_bits=int(d.get("start_bits", 0)),
            start_sim_seconds=float(d.get("start_sim_seconds", 0.0)),
            end_round=None if d.get("end_round") is None else int(d["end_round"]),
            end_messages=(
                None if d.get("end_messages") is None else int(d["end_messages"])
            ),
            end_bits=None if d.get("end_bits") is None else int(d["end_bits"]),
            end_sim_seconds=(
                None
                if d.get("end_sim_seconds") is None
                else float(d["end_sim_seconds"])
            ),
        )


class _SpanHandle:
    """Context manager returned by :meth:`MachineObs.span`."""

    __slots__ = ("_recorder", "_machine", "_name", "_index")

    def __init__(self, recorder: "SpanRecorder", machine: int, name: str) -> None:
        self._recorder = recorder
        self._machine = machine
        self._name = name
        self._index: int | None = None

    def __enter__(self) -> "_SpanHandle":
        self._index = self._recorder.open(self._name, self._machine)
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._index is not None:
            self._recorder.close(self._index)
            self._index = None
        return False


class MachineObs:
    """One machine's view of the recorder (what ``ctx.obs`` holds).

    Duck-type compatible with :class:`repro.kmachine.machine.NullObs`,
    so protocol code never branches on whether observability is on.
    """

    __slots__ = ("_recorder", "_rank")

    enabled = True

    def __init__(self, recorder: "SpanRecorder", rank: int) -> None:
        self._recorder = recorder
        self._rank = rank

    def span(self, name: str) -> _SpanHandle:
        """Open a named span for this machine (use as ``with``)."""
        return _SpanHandle(self._recorder, self._rank, name)

    def event(self, name: str, **detail: Any) -> None:
        """Record a protocol-defined event on the run's tracer (if any)."""
        tracer = self._recorder.tracer
        if tracer is not None:
            tracer.record(self._recorder.round, name, machine=self._rank, **detail)


class SpanRecorder:
    """Collects :class:`Span` records for one simulation run.

    Owned by the simulator; reads entry/exit snapshots from the run's
    shared :class:`~repro.kmachine.metrics.Metrics` (any object with
    ``messages``/``bits``/``compute_seconds``/``comm_seconds``
    attributes works — the multiprocess runtime substitutes a
    per-worker meter).  The simulator keeps :attr:`round` current.
    """

    enabled = True

    def __init__(self, metrics: "Metrics", tracer: "Tracer | NullTracer | None" = None) -> None:
        self.metrics = metrics
        self.tracer = tracer if (tracer is None or tracer.enabled) else None
        self.round = 0
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}

    # -- recording -----------------------------------------------------
    def for_machine(self, rank: int) -> MachineObs:
        """The per-machine handle to attach as ``ctx.obs``."""
        return MachineObs(self, rank)

    def open(self, name: str, machine: int) -> int:
        """Start a span; returns its index (used by the handle)."""
        stack = self._stacks.setdefault(machine, [])
        parent = stack[-1] if stack else None
        m = self.metrics
        span = Span(
            name=name,
            machine=machine,
            index=len(self.spans),
            parent=parent,
            depth=len(stack),
            start_round=self.round,
            start_messages=m.messages,
            start_bits=m.bits,
            start_sim_seconds=m.compute_seconds + m.comm_seconds,
        )
        self.spans.append(span)
        stack.append(span.index)
        return span.index

    def close(self, index: int) -> None:
        """Take the exit snapshot for span ``index``."""
        span = self.spans[index]
        if span.closed:
            return
        m = self.metrics
        span.end_round = self.round
        span.end_messages = m.messages
        span.end_bits = m.bits
        span.end_sim_seconds = m.compute_seconds + m.comm_seconds
        stack = self._stacks.get(span.machine, [])
        if index in stack:
            # Close any children left open (abnormal exits) first.
            while stack and stack[-1] != index:
                self.close(stack.pop())
            if stack:
                stack.pop()

    def close_all(self) -> None:
        """Close every still-open span (aborted runs stay readable)."""
        for span in self.spans:
            if not span.closed:
                self.close(span.index)
        self._stacks.clear()

    # -- inspection ----------------------------------------------------
    def machines(self) -> list[int]:
        """Ranks that recorded at least one span."""
        return sorted({s.machine for s in self.spans})

    def top_level(self, machine: int | None = None) -> list[Span]:
        """Depth-0 spans, optionally restricted to one machine."""
        return [
            s
            for s in self.spans
            if s.depth == 0 and (machine is None or s.machine == machine)
        ]

    def children(self, index: int) -> list[Span]:
        """Direct children of span ``index``."""
        return [s for s in self.spans if s.parent == index]

    def format(self, machine: int | None = None) -> str:
        """Human-readable per-machine span trees with deltas."""
        lines: list[str] = []
        for rank in self.machines():
            if machine is not None and rank != machine:
                continue
            lines.append(f"machine {rank}:")
            for span in self.spans:
                if span.machine != rank:
                    continue
                pad = "  " * (span.depth + 1)
                end = "?" if span.end_round is None else str(span.end_round)
                lines.append(
                    f"{pad}{span.name}: rounds {span.start_round}..{end} "
                    f"(+{span.rounds}) messages +{span.messages} bits +{span.bits}"
                )
        return "\n".join(lines)


@dataclass
class PhaseAttribution:
    """How one machine's top-level spans split the run's message bill.

    ``by_phase`` maps span name → messages attributed; ``covered`` is
    their sum; ``coverage`` the fraction of ``total_messages`` the
    named phases explain (the acceptance bar is ≥ 0.95 on a seeded
    Algorithm 2 run).
    """

    machine: int
    by_phase: dict[str, int] = field(default_factory=dict)
    total_messages: int = 0

    @property
    def covered(self) -> int:
        """Messages attributed to some named phase."""
        return sum(self.by_phase.values())

    @property
    def coverage(self) -> float:
        """Covered fraction of the run's total messages (1.0 if none)."""
        if self.total_messages <= 0:
            return 1.0
        return self.covered / self.total_messages

    def format(self) -> str:
        """One line per phase plus the coverage footer."""
        lines = [
            f"  {name:<14} {count:>8} msgs"
            for name, count in sorted(
                self.by_phase.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append(
            f"  {'covered':<14} {self.covered:>8} / {self.total_messages} "
            f"({100.0 * self.coverage:.1f}%)  [machine {self.machine}]"
        )
        return "\n".join(lines)


def phase_attribution(
    spans: Iterable[Span],
    total_messages: int,
    machine: int | None = None,
) -> PhaseAttribution:
    """Attribute the run's messages to named phases via one span tree.

    Uses the *top-level* spans of a single machine: per machine those
    windows are disjoint in snapshot space, so their message deltas sum
    without double counting.  With ``machine=None`` the machine whose
    spans cover the most messages is chosen — in the protocols here
    that is the leader, whose phase windows bracket the whole system's
    traffic (workers spend most phases blocked in receives).
    """
    spans = list(spans)
    ranks = (
        [machine]
        if machine is not None
        else sorted({s.machine for s in spans})
    )
    best: PhaseAttribution | None = None
    for rank in ranks:
        by_phase: dict[str, int] = {}
        for span in spans:
            if span.machine != rank or span.depth != 0 or not span.closed:
                continue
            by_phase[span.name] = by_phase.get(span.name, 0) + span.messages
        candidate = PhaseAttribution(
            machine=rank, by_phase=by_phase, total_messages=total_messages
        )
        if best is None or candidate.covered > best.covered:
            best = candidate
    return best if best is not None else PhaseAttribution(
        machine=-1, total_messages=total_messages
    )
