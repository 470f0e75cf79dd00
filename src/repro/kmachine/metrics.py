"""Round, message and bit accounting for simulations.

These are the two quantities the paper's theorems bound — *round
complexity* (Theorems 2.2 and 2.4) and *message complexity* — plus a
modelled wall-clock built from measured local-compute time and the
α–β communication model in :mod:`repro.kmachine.timing`.  Every
experiment in :mod:`repro.experiments` reads its numbers from a
:class:`Metrics` snapshot, so the benchmarks report exactly what the
simulator enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

__all__ = ["RoundRecord", "Metrics"]


@dataclass
class RoundRecord:
    """Per-round accounting, kept when ``timeline=True``.

    The trailing keyword fields were added by the cost-model profiler
    (see :mod:`repro.obs.profile`) and default to "unknown" so old
    serialized timelines load unchanged: ``max_dst_messages`` is the
    busiest receiver's delivery count (the γ term's multiplier in
    :meth:`repro.kmachine.timing.CostModel.round_cost`), while
    ``top_link``/``top_ingress`` name *which* link transmitted
    ``max_link_bits`` and *which* machine received
    ``max_dst_messages``; the latter two are recorded only when the
    simulator runs with ``profile=True``.
    """

    round: int
    messages_sent: int
    bits_sent: int
    messages_delivered: int
    max_link_bits: int
    compute_seconds: float
    comm_seconds: float
    active_machines: int
    max_dst_messages: int = 0
    top_link: tuple[int, int] | None = None
    top_ingress: int | None = None


@dataclass
class Metrics:
    """Cumulative accounting for one simulation run.

    Attributes
    ----------
    rounds:
        Number of synchronous communication rounds elapsed until every
        machine halted and all link queues drained.
    messages:
        Total messages accepted by the network.
    bits:
        Total payload+header bits accepted by the network.
    per_tag_messages / per_tag_bits:
        Breakdown by message tag, useful to attribute cost to protocol
        phases (election vs sampling vs selection iterations).
    per_link_messages / per_link_bits:
        Breakdown by directed ``(src, dst)`` link, populated only when
        the simulator runs with ``profile=True`` (the cost-model
        profiler's traffic matrix; see :mod:`repro.obs.profile`).
        Empty dicts otherwise, so the disabled path costs nothing.
    max_link_queue_bits:
        High-water mark of the bits queued on the *whole network* after
        a round's drain: the maximum over rounds of
        :meth:`~repro.kmachine.network.Network.queued_bits`, summed over
        every link.  Despite the name it is not the busiest single link;
        that is :attr:`~repro.kmachine.network.LinkStats.max_queue_bits`
        per link.
    compute_seconds:
        Modelled parallel compute time: the sum over rounds of the
        *maximum* per-machine local computation time in that round
        (machines compute concurrently in the model).
    comm_seconds:
        Modelled communication time under the α–β cost model.
    simulated_seconds:
        ``compute_seconds + comm_seconds`` — the modelled wall-clock
        used by the Figure 2 reproduction.
    fault_drops / fault_duplicates / fault_corruptions / fault_reorders:
        Messages affected by injected link faults (see
        :mod:`repro.kmachine.faults`).
    outage_drops / crash_drops:
        Messages lost to link outages, and in-flight/inbox messages
        purged by crash-stop failures (including later submissions
        addressed to or from a crashed machine).
    crashed:
        ``(rank, round)`` pairs for every crash-stop event that felled
        a still-running machine.
    byz_tampered / byz_silenced:
        Messages mangled or suppressed by a Byzantine NIC (see
        :class:`~repro.kmachine.faults.ByzantinePlan`).
    retransmissions / acks_sent / duplicates_suppressed / checksum_failures:
        Reliable-layer accounting (see :mod:`repro.kmachine.reliable`):
        ACK-timeout retransmissions, ACK messages emitted, duplicate
        deliveries filtered by sequence-number dedup, and deliveries
        rejected by checksum validation.
    timeline:
        Optional per-round records (populated when the simulator is
        constructed with ``timeline=True``).
    """

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    per_tag_messages: dict[str, int] = field(default_factory=dict)
    per_tag_bits: dict[str, int] = field(default_factory=dict)
    per_link_messages: dict[tuple[int, int], int] = field(default_factory=dict)
    per_link_bits: dict[tuple[int, int], int] = field(default_factory=dict)
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    max_link_queue_bits: int = 0
    dropped_messages: int = 0
    fault_drops: int = 0
    fault_duplicates: int = 0
    fault_corruptions: int = 0
    fault_reorders: int = 0
    outage_drops: int = 0
    crash_drops: int = 0
    crashed: list[tuple[int, int]] = field(default_factory=list)
    retransmissions: int = 0
    byz_tampered: int = 0
    byz_silenced: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    checksum_failures: int = 0
    timeline: list[RoundRecord] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Modelled wall-clock: parallel compute plus communication."""
        return self.compute_seconds + self.comm_seconds

    def record_send(
        self,
        tag: str,
        bits: int,
        src: int | None = None,
        dst: int | None = None,
    ) -> None:
        """Account one message entering the network.

        ``src``/``dst`` are passed only by a profiling simulator and
        additionally feed the per-link traffic matrix; the common
        two-argument call leaves the link maps untouched.
        """
        self.messages += 1
        self.bits += bits
        self.per_tag_messages[tag] = self.per_tag_messages.get(tag, 0) + 1
        self.per_tag_bits[tag] = self.per_tag_bits.get(tag, 0) + bits
        if src is not None and dst is not None:
            link = (src, dst)
            self.per_link_messages[link] = self.per_link_messages.get(link, 0) + 1
            self.per_link_bits[link] = self.per_link_bits.get(link, 0) + bits

    # ------------------------------------------------------------------
    # link-level views (profiled runs only; empty maps degrade to {})
    # ------------------------------------------------------------------
    def ingress_messages(self) -> dict[int, int]:
        """Messages received per machine, summed from the link counters."""
        ingress: dict[int, int] = {}
        for (_, dst), count in self.per_link_messages.items():
            ingress[dst] = ingress.get(dst, 0) + count
        return ingress

    def egress_messages(self) -> dict[int, int]:
        """Messages sent per machine, summed from the link counters."""
        egress: dict[int, int] = {}
        for (src, _), count in self.per_link_messages.items():
            egress[src] = egress.get(src, 0) + count
        return egress

    def hot_ingress(self) -> tuple[int, int] | None:
        """``(rank, messages)`` of the busiest receiver (ties → lowest rank).

        ``None`` when no per-link data was recorded (unprofiled run).
        """
        ingress = self.ingress_messages()
        if not ingress:
            return None
        rank = min(ingress, key=lambda r: (-ingress[r], r))
        return rank, ingress[rank]

    def ingress_share(self, rank: int | None = None) -> float | None:
        """Fraction of all messages landing at ``rank`` (default: hottest).

        The *leader-ingest share* metric: for a star-shaped gather of
        ``k − 1`` worker reports this is ``(k−1) / messages``.  ``None``
        without per-link data or when no messages were sent.
        """
        if not self.per_link_messages or self.messages <= 0:
            return None
        if rank is None:
            hot = self.hot_ingress()
            assert hot is not None
            rank = hot[0]
        return self.ingress_messages().get(rank, 0) / self.messages

    def merge(self, other: "Metrics") -> "Metrics":
        """Return a new snapshot summing this run with ``other``.

        Used by drivers that run multi-phase protocols as separate
        simulations (e.g. classifier fit + many queries) and want a
        combined budget.  Timelines are concatenated with ``other``'s
        round indices shifted by ``self.rounds``, so the merged
        timeline stays monotonic exactly as the summed round count
        implies (the two runs happened back to back).
        """
        merged = Metrics(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            bits=self.bits + other.bits,
            compute_seconds=self.compute_seconds + other.compute_seconds,
            comm_seconds=self.comm_seconds + other.comm_seconds,
            max_link_queue_bits=max(self.max_link_queue_bits, other.max_link_queue_bits),
            dropped_messages=self.dropped_messages + other.dropped_messages,
            fault_drops=self.fault_drops + other.fault_drops,
            fault_duplicates=self.fault_duplicates + other.fault_duplicates,
            fault_corruptions=self.fault_corruptions + other.fault_corruptions,
            fault_reorders=self.fault_reorders + other.fault_reorders,
            outage_drops=self.outage_drops + other.outage_drops,
            crash_drops=self.crash_drops + other.crash_drops,
            crashed=list(self.crashed) + list(other.crashed),
            retransmissions=self.retransmissions + other.retransmissions,
            byz_tampered=self.byz_tampered + other.byz_tampered,
            byz_silenced=self.byz_silenced + other.byz_silenced,
            acks_sent=self.acks_sent + other.acks_sent,
            duplicates_suppressed=self.duplicates_suppressed + other.duplicates_suppressed,
            checksum_failures=self.checksum_failures + other.checksum_failures,
        )
        for tag_map_name in (
            "per_tag_messages",
            "per_tag_bits",
            "per_link_messages",
            "per_link_bits",
        ):
            merged_map = dict(getattr(self, tag_map_name))
            for tag, count in getattr(other, tag_map_name).items():
                merged_map[tag] = merged_map.get(tag, 0) + count
            setattr(merged, tag_map_name, merged_map)
        merged.timeline = list(self.timeline) + [
            replace(rec, round=rec.round + self.rounds) for rec in other.timeline
        ]
        return merged

    def summary(self, verbose: bool = False) -> str:
        """One-line human-readable summary (fault/reliability part only if used).

        The reliable clause appears whenever *any* reliable-layer
        counter is nonzero (a run can suppress duplicates or reject
        checksums without ever retransmitting), so merged multi-attempt
        metrics report consistently.  ``verbose=True`` appends a
        per-tag breakdown — one line per message tag, busiest first —
        attributing the message/bit bill to protocol phases.
        """
        line = (
            f"rounds={self.rounds} messages={self.messages} bits={self.bits} "
            f"sim_time={self.simulated_seconds:.6f}s "
            f"(compute={self.compute_seconds:.6f}s comm={self.comm_seconds:.6f}s)"
        )
        faulted = (
            self.fault_drops + self.fault_duplicates + self.fault_corruptions
            + self.fault_reorders + self.outage_drops + self.crash_drops
        )
        if faulted or self.crashed:
            line += (
                f" faults[drop={self.fault_drops} dup={self.fault_duplicates}"
                f" corrupt={self.fault_corruptions} reorder={self.fault_reorders}"
                f" outage={self.outage_drops} crash_purged={self.crash_drops}"
                f" crashed={self.crashed}]"
            )
        if (
            self.retransmissions or self.acks_sent
            or self.duplicates_suppressed or self.checksum_failures
        ):
            line += (
                f" reliable[retx={self.retransmissions} acks={self.acks_sent}"
                f" dedup={self.duplicates_suppressed} badsum={self.checksum_failures}]"
            )
        if verbose and self.per_tag_messages:
            for tag in sorted(
                self.per_tag_messages, key=lambda t: -self.per_tag_messages[t]
            ):
                line += (
                    f"\n  tag {tag}: {self.per_tag_messages[tag]} msgs, "
                    f"{self.per_tag_bits.get(tag, 0)} bits"
                )
        return line

    # ------------------------------------------------------------------
    # serialization (benchmark result files, trace exports)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_dict`.

        Includes the derived ``simulated_seconds`` for report
        convenience (ignored on load) and the full timeline when one
        was recorded.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "timeline":
                records = []
                for rec in value:
                    d = vars(rec).copy()
                    if d.get("top_link") is not None:
                        d["top_link"] = list(d["top_link"])
                    records.append(d)
                out["timeline"] = records
            elif f.name == "crashed":
                out["crashed"] = [list(pair) for pair in value]
            elif f.name in ("per_tag_messages", "per_tag_bits"):
                out[f.name] = dict(value)
            elif f.name in ("per_link_messages", "per_link_bits"):
                # JSON keys must be strings: (src, dst) → "src->dst".
                out[f.name] = {
                    f"{src}->{dst}": count for (src, dst), count in value.items()
                }
            else:
                out[f.name] = value
        out["simulated_seconds"] = self.simulated_seconds
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Metrics":
        """Rebuild a snapshot from :meth:`to_dict` output.

        Unknown keys are ignored, so result files written by newer
        versions (or JSONL envelopes carrying a ``type`` field) load
        cleanly.
        """
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for name, value in data.items():
            if name not in known:
                continue
            if name == "timeline":
                records = []
                for rec in value:
                    rec = dict(rec)
                    if rec.get("top_link") is not None:
                        rec["top_link"] = tuple(rec["top_link"])
                    records.append(RoundRecord(**rec))
                kwargs["timeline"] = records
            elif name == "crashed":
                kwargs["crashed"] = [tuple(pair) for pair in value]
            elif name in ("per_link_messages", "per_link_bits"):
                parsed: dict[tuple[int, int], int] = {}
                for key, count in value.items():
                    if isinstance(key, tuple):
                        src, dst = key
                    else:
                        src, dst = str(key).split("->", 1)
                    parsed[(int(src), int(dst))] = count
                kwargs[name] = parsed
            else:
                kwargs[name] = value
        return cls(**kwargs)
