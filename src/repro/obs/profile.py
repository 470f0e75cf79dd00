"""Cost-model profiler: which term of the α–β–γ model binds each round?

The modelled communication time of a round is

    ``alpha + max_link_bits / beta + gamma * max_dst_messages``

(:meth:`repro.kmachine.timing.CostModel.round_cost`).  The paper's
efficiency claims live entirely in how the protocols shrink the β and
γ multipliers, so a *profiler* for this codebase answers, per round
and per protocol phase: which of the three terms dominated, on which
link, at which machine?  That is what decides whether the next
optimisation should attack latency (fewer rounds), bandwidth (smaller
payloads on the busiest link) or receiver overhead (spread the
leader's ingress over an aggregation tree).

Inputs come from a simulation run with ``observe="profile"``
(:class:`repro.kmachine.simulator.Simulator`): the run's
:class:`~repro.kmachine.metrics.Metrics` then carries per-(src,dst)
link counters and a timeline whose records name the busiest link and
receiver of every round.  Everything here is pure arithmetic over
that snapshot — the profiler itself never touches a live simulation,
so it can equally run over a deserialized JSONL log.

Outputs:

* :func:`attribute_round` / :class:`RoundCost` — the per-round term
  split and the binding term/link/machine, reproducing
  ``round_cost``'s arithmetic exactly (``consistent`` flags any
  mismatch against the recorded ``comm_seconds``);
* :class:`CostProfile` — the aggregate: binding-term breakdown, k×k
  traffic matrices, per-machine ingress and the leader-ingest share,
  per-phase cost attribution (joining the span tree with the round
  clock), critical-path segments, and a modelled-time flamegraph;
* ``python -m repro.obs profile`` renders all of it as text, JSON and
  a self-contained HTML report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..kmachine.metrics import Metrics, RoundRecord
from ..kmachine.timing import CostModel, DEFAULT_COST_MODEL
from .spans import Span, phase_attribution

__all__ = [
    "RoundCost",
    "PhaseCost",
    "CriticalSegment",
    "CostProfile",
    "attribute_round",
]

#: Binding-term labels, in tie-break order (a round whose largest two
#: terms are exactly equal is attributed to the earlier label).
TERMS = ("alpha", "beta", "gamma")


@dataclass
class RoundCost:
    """One round's α/β/γ term split and its binding attribution.

    ``binding`` is the largest term (``"idle"`` for no-traffic rounds,
    ``"none"`` when every term is zero, e.g. under
    :data:`~repro.kmachine.timing.ZERO_COST_MODEL`).  ``binding_link``
    names the busiest link when β binds; ``binding_machine`` the
    busiest receiver when γ binds.  ``recorded_comm_seconds`` is what
    the simulator charged; :attr:`consistent` checks the re-derived
    arithmetic against it.
    """

    round: int
    alpha_seconds: float
    beta_seconds: float
    gamma_seconds: float
    idle_seconds: float
    binding: str
    binding_link: tuple[int, int] | None
    binding_machine: int | None
    messages_sent: int
    max_link_bits: int
    max_dst_messages: int
    recorded_comm_seconds: float

    @property
    def modelled_seconds(self) -> float:
        """The re-derived round cost (should equal the recorded one)."""
        return (
            self.alpha_seconds
            + self.beta_seconds
            + self.gamma_seconds
            + self.idle_seconds
        )

    @property
    def binding_seconds(self) -> float:
        """Seconds contributed by the binding term alone."""
        return {
            "alpha": self.alpha_seconds,
            "beta": self.beta_seconds,
            "gamma": self.gamma_seconds,
            "idle": self.idle_seconds,
        }.get(self.binding, 0.0)

    @property
    def consistent(self) -> bool:
        """Does the re-derived arithmetic match the simulator's charge?"""
        return math.isclose(
            self.modelled_seconds,
            self.recorded_comm_seconds,
            rel_tol=1e-9,
            abs_tol=1e-15,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "round": self.round,
            "alpha_seconds": self.alpha_seconds,
            "beta_seconds": self.beta_seconds,
            "gamma_seconds": self.gamma_seconds,
            "idle_seconds": self.idle_seconds,
            "binding": self.binding,
            "binding_link": (
                None if self.binding_link is None else list(self.binding_link)
            ),
            "binding_machine": self.binding_machine,
            "messages_sent": self.messages_sent,
            "max_link_bits": self.max_link_bits,
            "max_dst_messages": self.max_dst_messages,
            "recorded_comm_seconds": self.recorded_comm_seconds,
            "modelled_seconds": self.modelled_seconds,
            "consistent": self.consistent,
        }


def attribute_round(rec: RoundRecord, cost_model: CostModel) -> RoundCost:
    """Re-derive one round's term split from its timeline record.

    Traffic detection is exact: the simulator charged a traffic round
    iff something was sent this round or some link queue was busy —
    and a busy link always transmits at least one bit, so
    ``messages_sent > 0 or max_link_bits > 0`` reconstructs the
    ``any_traffic`` flag that
    :meth:`~repro.kmachine.timing.CostModel.round_cost` saw.
    """
    any_traffic = rec.messages_sent > 0 or rec.max_link_bits > 0
    if not any_traffic:
        return RoundCost(
            round=rec.round,
            alpha_seconds=0.0,
            beta_seconds=0.0,
            gamma_seconds=0.0,
            idle_seconds=cost_model.idle_round_seconds,
            binding="idle",
            binding_link=None,
            binding_machine=None,
            messages_sent=rec.messages_sent,
            max_link_bits=rec.max_link_bits,
            max_dst_messages=rec.max_dst_messages,
            recorded_comm_seconds=rec.comm_seconds,
        )
    alpha = cost_model.alpha_seconds
    beta = (
        rec.max_link_bits / cost_model.beta_bits_per_second
        if cost_model.beta_bits_per_second > 0
        else 0.0
    )
    gamma = cost_model.gamma_seconds_per_message * rec.max_dst_messages
    terms = {"alpha": alpha, "beta": beta, "gamma": gamma}
    largest = max(terms.values())
    if largest <= 0.0:
        binding = "none"
    else:
        binding = next(name for name in TERMS if terms[name] == largest)
    return RoundCost(
        round=rec.round,
        alpha_seconds=alpha,
        beta_seconds=beta,
        gamma_seconds=gamma,
        idle_seconds=0.0,
        binding=binding,
        binding_link=rec.top_link if binding == "beta" else None,
        binding_machine=rec.top_ingress if binding == "gamma" else None,
        messages_sent=rec.messages_sent,
        max_link_bits=rec.max_link_bits,
        max_dst_messages=rec.max_dst_messages,
        recorded_comm_seconds=rec.comm_seconds,
    )


@dataclass
class PhaseCost:
    """Modelled cost of one protocol phase (one span name, one machine).

    Aggregated over every closed top-level span with that name on the
    attribution machine: the α/β/γ split comes from the rounds inside
    the span windows, the message/bit deltas from the span snapshots.
    """

    name: str
    machine: int
    rounds: int
    messages: int
    bits: int
    seconds: float
    by_term: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "machine": self.machine,
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "seconds": self.seconds,
            "by_term": dict(self.by_term),
        }


@dataclass
class CriticalSegment:
    """A maximal run of consecutive rounds bound by the same entity.

    ``entity`` renders the binding owner: ``link 3->0`` when β binds,
    ``machine 0`` when γ binds, plain ``alpha`` for latency-bound
    stretches.  ``seconds`` is the full modelled communication time of
    the segment; ``binding_seconds`` the binding term's share of it.
    """

    start_round: int
    end_round: int  # inclusive
    binding: str
    binding_link: tuple[int, int] | None
    binding_machine: int | None
    rounds: int
    seconds: float
    binding_seconds: float

    @property
    def entity(self) -> str:
        """Human-readable owner of the segment."""
        if self.binding == "beta" and self.binding_link is not None:
            return f"link {self.binding_link[0]}->{self.binding_link[1]}"
        if self.binding == "gamma" and self.binding_machine is not None:
            return f"machine {self.binding_machine}"
        return self.binding

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "start_round": self.start_round,
            "end_round": self.end_round,
            "binding": self.binding,
            "binding_link": (
                None if self.binding_link is None else list(self.binding_link)
            ),
            "binding_machine": self.binding_machine,
            "entity": self.entity,
            "rounds": self.rounds,
            "seconds": self.seconds,
            "binding_seconds": self.binding_seconds,
        }


class CostProfile:
    """The full cost-model profile of one (possibly multi-episode) run.

    Parameters
    ----------
    metrics:
        A profiled run's snapshot — per-link counters populated and a
        timeline recorded (``Simulator(observe="profile")``), or the same
        loaded back from a JSONL log.
    cost_model:
        The α–β–γ constants to attribute with.  Pass the model the run
        used; :data:`~repro.kmachine.timing.DEFAULT_COST_MODEL` by
        default.  :attr:`consistent` is False when they disagree with
        the recorded ``comm_seconds`` (e.g. analysing a
        zero-cost-model run with real constants — legal, but then the
        re-derived times are hypothetical).
    spans:
        Optional phase spans from the same run; enables
        :meth:`phase_costs` and :meth:`flamegraph`.
    k:
        Machine count; inferred from the link counters / spans when
        omitted.
    """

    def __init__(
        self,
        metrics: Metrics,
        cost_model: CostModel | None = None,
        spans: Iterable[Span] | None = None,
        k: int | None = None,
    ) -> None:
        self.metrics = metrics
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self.spans = list(spans) if spans is not None else []
        self.rounds = [
            attribute_round(rec, self.cost_model) for rec in metrics.timeline
        ]
        self.k = k if k is not None else self._infer_k()

    def _infer_k(self) -> int:
        ranks: set[int] = set()
        for src, dst in self.metrics.per_link_messages:
            ranks.add(src)
            ranks.add(dst)
        ranks.update(s.machine for s in self.spans if s.machine >= 0)
        ranks.update(
            rc.binding_machine for rc in self.rounds if rc.binding_machine is not None
        )
        return (max(ranks) + 1) if ranks else 0

    # -- binding-term aggregates ---------------------------------------
    @property
    def consistent(self) -> bool:
        """Every round's re-derived cost matches the simulator's charge."""
        return all(rc.consistent for rc in self.rounds)

    def binding_seconds(self) -> dict[str, float]:
        """Modelled comm seconds attributed to each binding term."""
        out: dict[str, float] = {}
        for rc in self.rounds:
            out[rc.binding] = out.get(rc.binding, 0.0) + rc.modelled_seconds
        return out

    def binding_rounds(self) -> dict[str, int]:
        """Round counts per binding term."""
        out: dict[str, int] = {}
        for rc in self.rounds:
            out[rc.binding] = out.get(rc.binding, 0) + 1
        return out

    def term_seconds(self) -> dict[str, float]:
        """Total seconds each term contributed across all rounds.

        Unlike :meth:`binding_seconds` (whole rounds bucketed by their
        *largest* term) this is the exact additive split: the three
        values plus idle sum to the run's modelled comm time.
        """
        return {
            "alpha": sum(rc.alpha_seconds for rc in self.rounds),
            "beta": sum(rc.beta_seconds for rc in self.rounds),
            "gamma": sum(rc.gamma_seconds for rc in self.rounds),
            "idle": sum(rc.idle_seconds for rc in self.rounds),
        }

    # -- traffic matrix / ingress --------------------------------------
    def traffic_matrix(self, kind: str = "messages") -> list[list[int]]:
        """The k×k directed traffic matrix (row = src, column = dst)."""
        if kind not in ("messages", "bits"):
            raise ValueError("kind must be 'messages' or 'bits'")
        source = (
            self.metrics.per_link_messages
            if kind == "messages"
            else self.metrics.per_link_bits
        )
        matrix = [[0] * self.k for _ in range(self.k)]
        for (src, dst), count in source.items():
            if 0 <= src < self.k and 0 <= dst < self.k:
                matrix[src][dst] = count
        return matrix

    def ingress_by_machine(self) -> dict[int, int]:
        """Messages received per machine."""
        return self.metrics.ingress_messages()

    @property
    def leader(self) -> int | None:
        """The hottest receiver — in these protocols, the leader."""
        hot = self.metrics.hot_ingress()
        return None if hot is None else hot[0]

    def leader_ingest_share(self, rank: int | None = None) -> float | None:
        """Fraction of all messages the leader (or ``rank``) ingested."""
        return self.metrics.ingress_share(rank)

    # -- phase attribution ---------------------------------------------
    def attribution_machine(self) -> int | None:
        """The machine whose top-level spans cover the most messages."""
        if not self.spans:
            return None
        return phase_attribution(self.spans, self.metrics.messages).machine

    def phase_costs(self, machine: int | None = None) -> list[PhaseCost]:
        """Join the span tree with the round clock, one entry per phase.

        Uses the attribution machine's closed top-level spans (windows
        are disjoint per machine, so sums never double count).  Rounds
        are assigned to a span when they fall in its half-open
        ``[start_round, end_round)`` window; phases repeated across
        episodes (same span name) aggregate into one entry.  Sorted by
        modelled seconds, busiest first.
        """
        if machine is None:
            machine = self.attribution_machine()
        if machine is None:
            return []
        by_round = {rc.round: rc for rc in self.rounds}
        phases: dict[str, PhaseCost] = {}
        for span in self.spans:
            if span.machine != machine or span.depth != 0 or not span.closed:
                continue
            entry = phases.get(span.name)
            if entry is None:
                entry = phases[span.name] = PhaseCost(
                    name=span.name,
                    machine=machine,
                    rounds=0,
                    messages=0,
                    bits=0,
                    seconds=0.0,
                    by_term={},
                )
            entry.rounds += span.rounds
            entry.messages += span.messages
            entry.bits += span.bits
            assert span.end_round is not None
            for r in range(span.start_round, span.end_round):
                rc = by_round.get(r)
                if rc is None:
                    continue
                entry.seconds += rc.modelled_seconds
                entry.by_term[rc.binding] = (
                    entry.by_term.get(rc.binding, 0.0) + rc.modelled_seconds
                )
        return sorted(phases.values(), key=lambda p: (-p.seconds, p.name))

    # -- critical path -------------------------------------------------
    def critical_path(self) -> list[CriticalSegment]:
        """Merge consecutive rounds bound by the same entity into segments.

        Idle rounds break segments but produce none themselves; the
        result, read in order, is the modelled-time critical path of
        the run — which latency, link or receiver the clock was
        waiting on, stretch by stretch.
        """
        segments: list[CriticalSegment] = []
        current: CriticalSegment | None = None
        for rc in self.rounds:
            if rc.binding in ("idle", "none"):
                current = None
                continue
            key = (rc.binding, rc.binding_link, rc.binding_machine)
            if (
                current is not None
                and (current.binding, current.binding_link, current.binding_machine)
                == key
                and rc.round == current.end_round + 1
            ):
                current.end_round = rc.round
                current.rounds += 1
                current.seconds += rc.modelled_seconds
                current.binding_seconds += rc.binding_seconds
            else:
                current = CriticalSegment(
                    start_round=rc.round,
                    end_round=rc.round,
                    binding=rc.binding,
                    binding_link=rc.binding_link,
                    binding_machine=rc.binding_machine,
                    rounds=1,
                    seconds=rc.modelled_seconds,
                    binding_seconds=rc.binding_seconds,
                )
                segments.append(current)
        return segments

    def top_segments(self, top: int = 5) -> list[CriticalSegment]:
        """The ``top`` critical-path segments by modelled seconds."""
        return sorted(
            self.critical_path(), key=lambda s: (-s.seconds, s.start_round)
        )[:top]

    # -- flamegraph ----------------------------------------------------
    def flamegraph(self) -> list[dict[str, Any]]:
        """Modelled-time flamegraph of the span forest.

        One root per machine (negative ranks render as ``scheduler``);
        node values are the span's modelled-seconds delta, children
        nested by the recorded parent indices — standard flamegraph
        semantics (a node's value includes its children; renderers
        derive self-time by subtraction).
        """
        nodes: dict[int, dict[str, Any]] = {}
        roots_by_machine: dict[int, list[dict[str, Any]]] = {}
        for span in self.spans:
            node = {
                "name": span.name,
                "machine": span.machine,
                "value": span.sim_seconds,
                "rounds": span.rounds,
                "messages": span.messages,
                "children": [],
            }
            nodes[span.index] = node
            if span.parent is not None and span.parent in nodes:
                nodes[span.parent]["children"].append(node)
            else:
                roots_by_machine.setdefault(span.machine, []).append(node)
        forest: list[dict[str, Any]] = []
        for machine in sorted(roots_by_machine):
            children = roots_by_machine[machine]
            forest.append(
                {
                    "name": "scheduler" if machine < 0 else f"machine {machine}",
                    "machine": machine,
                    "value": sum(c["value"] for c in children),
                    "rounds": sum(c["rounds"] for c in children),
                    "messages": sum(c["messages"] for c in children),
                    "children": children,
                }
            )
        return forest

    # -- reporting -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The full profile as one JSON-ready document."""
        m = self.metrics
        share = self.leader_ingest_share()
        return {
            "format": "repro.obs/profile",
            "version": 1,
            "k": self.k,
            "cost_model": {
                "alpha_seconds": self.cost_model.alpha_seconds,
                "beta_bits_per_second": self.cost_model.beta_bits_per_second,
                "gamma_seconds_per_message": self.cost_model.gamma_seconds_per_message,
                "idle_round_seconds": self.cost_model.idle_round_seconds,
            },
            "totals": {
                "rounds": m.rounds,
                "messages": m.messages,
                "bits": m.bits,
                "comm_seconds": m.comm_seconds,
                "compute_seconds": m.compute_seconds,
                "simulated_seconds": m.simulated_seconds,
            },
            "consistent": self.consistent,
            "binding_seconds": self.binding_seconds(),
            "binding_rounds": self.binding_rounds(),
            "term_seconds": self.term_seconds(),
            "traffic_matrix": {
                "messages": self.traffic_matrix("messages"),
                "bits": self.traffic_matrix("bits"),
            },
            "ingress": {str(r): n for r, n in sorted(self.ingress_by_machine().items())},
            "leader": self.leader,
            "leader_ingest_share": share,
            "phases": [p.to_dict() for p in self.phase_costs()],
            "critical_path": [s.to_dict() for s in self.critical_path()],
            "flamegraph": self.flamegraph(),
            "rounds_detail": [rc.to_dict() for rc in self.rounds],
        }

    def summary(self) -> str:
        """Multi-line human-readable profile report (the CLI's output)."""
        m = self.metrics
        lines = [
            f"cost profile: k={self.k} rounds={m.rounds} messages={m.messages} "
            f"bits={m.bits} comm={m.comm_seconds:.6f}s "
            f"({'consistent' if self.consistent else 'INCONSISTENT vs cost model'})"
        ]
        binding = self.binding_seconds()
        total = sum(binding.values()) or 1.0
        rounds_by = self.binding_rounds()
        lines.append("binding terms (rounds bucketed by largest term):")
        for name in ("alpha", "beta", "gamma", "idle", "none"):
            if name not in binding:
                continue
            lines.append(
                f"  {name:<6} {rounds_by.get(name, 0):>5} rounds  "
                f"{binding[name]:.6f}s ({100.0 * binding[name] / total:.1f}%)"
            )
        share = self.leader_ingest_share()
        if share is not None:
            hot = self.metrics.hot_ingress()
            assert hot is not None
            lines.append(
                f"leader ingest: machine {hot[0]} received {hot[1]} of "
                f"{m.messages} messages ({100.0 * share:.1f}%)"
            )
        segments = self.top_segments()
        if segments:
            lines.append("critical path (top segments by modelled time):")
            for seg in segments:
                lines.append(
                    f"  rounds {seg.start_round}..{seg.end_round} "
                    f"({seg.rounds}r) {seg.binding} @ {seg.entity}: "
                    f"{seg.seconds:.6f}s"
                )
        phases = self.phase_costs()
        if phases:
            lines.append("phase costs (modelled comm seconds):")
            for p in phases:
                split = " ".join(
                    f"{t}={s:.6f}" for t, s in sorted(p.by_term.items())
                )
                lines.append(
                    f"  {p.name:<14} {p.rounds:>4}r {p.messages:>6}msg "
                    f"{p.seconds:.6f}s  [{split}]"
                )
        return "\n".join(lines)
