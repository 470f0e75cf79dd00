"""Trace exporters: JSONL event logs and Chrome ``trace_event`` JSON.

Two on-disk formats, one logical stream:

* **JSONL** — one JSON object per line, self-describing via a ``type``
  field (``meta`` / ``event`` / ``span`` / ``metrics``).  The durable,
  grep-able archive format; :func:`read_jsonl` loads it back and
  ``python -m repro.obs convert`` turns it into the viewer format.
* **Chrome trace** — the ``trace_event`` JSON object format consumed
  by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Machines map to threads (tid ``rank + 1``; tid 0 is the simulator),
  spans become complete ``"X"`` slices, tracer events become instant
  ``"i"`` marks, and per-round timeline records become ``"C"``
  counters (per-round traffic and its running total).  The clock is
  the **round index**: one round is :data:`ROUND_TICK_US`
  microseconds of trace time, so "1 ms" in the viewer reads as
  "1 round".

Everything here is stdlib ``json`` over plain dicts; NumPy scalars and
tuples in event payloads are coerced via :func:`_json_safe`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from ..kmachine.metrics import Metrics, RoundRecord
from ..kmachine.tracing import NullTracer, TraceEvent, Tracer
from .spans import Span

__all__ = [
    "ROUND_TICK_US",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
]

#: Trace-time microseconds per simulated round (1 round = 1 ms).
ROUND_TICK_US = 1000

#: The single trace "process" all machines live in.
_PID = 0


def _json_safe(obj: Any) -> Any:
    """Coerce ``obj`` into something ``json.dump`` accepts.

    NumPy scalars expose ``item()``; tuples/sets become lists; dict
    keys become strings; anything else unserializable falls back to
    ``repr`` so an exotic payload can never kill an export.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        try:
            return _json_safe(obj.item())
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return repr(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    return repr(obj)


def _events_of(tracer: Tracer | NullTracer | Iterable[TraceEvent] | None) -> list[TraceEvent]:
    if tracer is None:
        return []
    events = getattr(tracer, "events", tracer)
    return list(events)


def _tid(machine: int | None) -> int:
    """Machine rank → Chrome thread id (tid 0 is the simulator).

    Negative ranks are pseudo-machines (the serving layer's scheduler
    records spans on rank −1); they keep their negative value so they
    get their own thread row, sorted above the simulator and machines.
    """
    if machine is None:
        return 0
    return machine if machine < 0 else machine + 1


def chrome_trace(
    tracer: Tracer | NullTracer | Iterable[TraceEvent] | None = None,
    spans: Iterable[Span] | None = None,
    timeline: Iterable[RoundRecord] | None = None,
    *,
    name: str = "repro",
) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document (the JSON object form).

    Any combination of inputs may be given; machines are discovered
    from whatever is present and named as threads.  Each timeline
    record becomes a point on two counter tracks: ``"traffic"`` (the
    round's own messages and bits) and ``"cumulative"`` (the running
    totals through that round, i.e. the run's budget burn-down).  The
    result is a plain dict — pass it to ``json.dump`` or use
    :func:`write_chrome_trace`.
    """
    events = _events_of(tracer)
    span_list = list(spans) if spans is not None else []
    records = list(timeline) if timeline is not None else []

    machines: set[int] = set()
    machines.update(s.machine for s in span_list)
    machines.update(e.machine for e in events if e.machine is not None)

    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "simulator"},
        },
    ]
    for rank in sorted(machines):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _tid(rank),
                "args": {
                    "name": "scheduler" if rank < 0 else f"machine {rank}"
                },
            }
        )

    for span in span_list:
        end_round = span.end_round if span.end_round is not None else span.start_round
        duration = max((end_round - span.start_round) * ROUND_TICK_US, 1)
        trace_events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "pid": _PID,
                "tid": _tid(span.machine),
                "ts": span.start_round * ROUND_TICK_US,
                "dur": duration,
                "args": {
                    "rounds": span.rounds,
                    "messages": span.messages,
                    "bits": span.bits,
                    "sim_seconds": span.sim_seconds,
                    "depth": span.depth,
                },
            }
        )

    for event in events:
        trace_events.append(
            {
                "name": event.kind,
                "cat": "event",
                "ph": "i",
                "s": "g" if event.machine is None else "t",
                "pid": _PID,
                "tid": _tid(event.machine),
                "ts": event.round * ROUND_TICK_US,
                "args": _json_safe(event.detail),
            }
        )

    for rec in records:
        trace_events.append(
            {
                "name": "traffic",
                "cat": "round",
                "ph": "C",
                "pid": _PID,
                "tid": 0,
                "ts": rec.round * ROUND_TICK_US,
                "args": {
                    "messages_sent": rec.messages_sent,
                    "bits_sent": rec.bits_sent,
                    "active_machines": rec.active_machines,
                },
            }
        )

    messages = bits = 0
    for rec in records:
        messages += rec.messages_sent
        bits += rec.bits_sent
        trace_events.append(
            {
                "name": "cumulative",
                "cat": "round",
                "ph": "C",
                "pid": _PID,
                "tid": 0,
                "ts": rec.round * ROUND_TICK_US,
                "args": {"messages": messages, "bits": bits},
            }
        )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"round_tick_us": ROUND_TICK_US, "source": "repro.obs"},
    }


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer | NullTracer | Iterable[TraceEvent] | None = None,
    spans: Iterable[Span] | None = None,
    timeline: Iterable[RoundRecord] | None = None,
    *,
    name: str = "repro",
) -> Path:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = chrome_trace(tracer, spans, timeline, name=name)
    with path.open("w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(
    path: str | Path | IO[str],
    tracer: Tracer | NullTracer | Iterable[TraceEvent] | None = None,
    spans: Iterable[Span] | None = None,
    metrics: Metrics | None = None,
    *,
    meta: Mapping[str, Any] | None = None,
) -> Path | None:
    """Write a structured JSONL event log.

    Line types: one ``meta`` header (run parameters plus counts), then
    ``event`` lines (tracer events in order), ``span`` lines, and an
    optional trailing ``metrics`` line carrying :meth:`Metrics.to_dict`
    (with the timeline, when one was recorded).  Returns the path
    (``None`` when writing to an open stream).
    """
    events = _events_of(tracer)
    span_list = list(spans) if spans is not None else []

    def _emit(fh: IO[str]) -> None:
        header: dict[str, Any] = {
            "type": "meta",
            "format": "repro.obs/jsonl",
            "version": 1,
            "events": len(events),
            "spans": len(span_list),
        }
        if meta:
            header.update(_json_safe(dict(meta)))
        fh.write(json.dumps(header) + "\n")
        for event in events:
            fh.write(
                json.dumps(
                    {
                        "type": "event",
                        "round": event.round,
                        "kind": event.kind,
                        "machine": event.machine,
                        "detail": _json_safe(event.detail),
                    }
                )
                + "\n"
            )
        for span in span_list:
            fh.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        if metrics is not None:
            fh.write(
                json.dumps({"type": "metrics", **_json_safe(metrics.to_dict())})
                + "\n"
            )

    if hasattr(path, "write"):
        _emit(path)  # type: ignore[arg-type]
        return None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        _emit(fh)
    return path


def read_jsonl(
    path: str | Path | IO[str],
) -> tuple[dict[str, Any], list[TraceEvent], list[Span], Metrics | None]:
    """Load a JSONL log back into ``(meta, events, spans, metrics)``.

    Unknown line types (such as the ``history`` line older logs carry)
    are skipped; a missing ``meta`` line yields an empty dict.
    """
    if hasattr(path, "read"):
        lines = path.read().splitlines()  # type: ignore[union-attr]
    else:
        lines = Path(path).read_text().splitlines()
    meta: dict[str, Any] = {}
    events: list[TraceEvent] = []
    spans: list[Span] = []
    metrics: Metrics | None = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            meta = record
        elif kind == "event":
            events.append(
                TraceEvent(
                    round=int(record["round"]),
                    kind=record["kind"],
                    machine=record.get("machine"),
                    detail=record.get("detail") or {},
                )
            )
        elif kind == "span":
            spans.append(Span.from_dict(record))
        elif kind == "metrics":
            metrics = Metrics.from_dict(record)
    return meta, events, spans, metrics
