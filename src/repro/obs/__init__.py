"""Observability for the k-machine reproduction (``repro.obs``).

The paper's entire contribution is a *budget* — Algorithm 1 finishes
in O(log n) rounds / O(k log n) messages (Theorem 2.2), Algorithm 2 in
O(log ℓ) rounds / O(k log ℓ) messages with at most 11ℓ survivors after
pruning (Lemma 2.3, Theorem 2.4).  This package makes those budgets
*observable* per protocol phase instead of per run.

A run records what its one ``observe`` level asks for; each level
keeps everything the one before it does:

===========  ====================================================
``off``      nothing (the default; instrumentation is a no-op)
``spans``    phase spans (``result.raw.spans``)
``profile``  plus the per-round timeline, per-link counters and
             busiest-link identities (``result.metrics``)
``trace``    plus the send/deliver/halt/fault event log
             (``result.raw.tracer``)
===========  ====================================================

The simulator records every level, the TCP backend ``off``/``spans``/
``profile`` and the multiprocess backend ``off``/``spans``.  The
modules:

* :mod:`repro.obs.spans` — hierarchical, round-clocked spans opened by
  protocol code (``with ctx.obs.span("sampling"): ...``) that snapshot
  :class:`~repro.kmachine.metrics.Metrics` deltas at entry/exit, plus
  the phase-attribution report used by the acceptance tests;
* :mod:`repro.obs.export` — JSONL structured event log and Chrome
  ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``;
  machines map to threads, the round index is the clock);
* :mod:`repro.obs.conformance` — a theory-conformance monitor checking
  observed runs against the paper's bounds and recording pass/fail
  verdicts with the measured constants;
* :mod:`repro.obs.profile` / :mod:`repro.obs.report` — the cost-model
  profiler: per-round α/β/γ binding-term attribution against
  :class:`~repro.kmachine.timing.CostModel`, k×k traffic matrices,
  leader-ingest share, per-phase cost attribution, critical-path
  segments and a modelled-time flamegraph, rendered as JSON or a
  self-contained HTML report (needs an ``observe="profile"`` run).

Inspect or convert trace files from the shell::

    python -m repro.obs info trace.jsonl
    python -m repro.obs spans trace.jsonl
    python -m repro.obs convert trace.jsonl trace.json
    python -m repro.obs demo --k 8 --l 64 --jsonl run.jsonl --chrome run.json
    python -m repro.obs profile --k 8 --l 64 --html report.html --json prof.json
"""

from .conformance import (
    ConformanceCheck,
    ConformanceReport,
    check_knn,
    check_knn_result,
    check_selection,
    check_selection_result,
    check_served_query,
    served_message_budget,
)
from .export import (
    ROUND_TICK_US,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .profile import (
    CostProfile,
    CriticalSegment,
    PhaseCost,
    RoundCost,
    attribute_round,
)
from .report import render_html, write_report
from .spans import (
    MachineObs,
    PhaseAttribution,
    Span,
    SpanRecorder,
    phase_attribution,
)

__all__ = [
    "ConformanceCheck",
    "ConformanceReport",
    "CostProfile",
    "CriticalSegment",
    "MachineObs",
    "PhaseAttribution",
    "PhaseCost",
    "ROUND_TICK_US",
    "RoundCost",
    "Span",
    "SpanRecorder",
    "attribute_round",
    "check_knn",
    "check_knn_result",
    "check_selection",
    "check_selection_result",
    "check_served_query",
    "chrome_trace",
    "served_message_budget",
    "phase_attribution",
    "read_jsonl",
    "render_html",
    "write_chrome_trace",
    "write_jsonl",
    "write_report",
]
