"""Exporter tests: Chrome trace_event validity and JSONL round trips."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.kmachine.metrics import Metrics, RoundRecord
from repro.kmachine.tracing import NullTracer, Tracer
from repro.obs.export import (
    ROUND_TICK_US,
    _json_safe,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import Span


def sample_span(machine=0, name="phase", start=0, end=3, index=0, depth=0):
    return Span(
        name=name, machine=machine, index=index, parent=None, depth=depth,
        start_round=start, start_messages=0, start_bits=0,
        start_sim_seconds=0.0, end_round=end, end_messages=7,
        end_bits=512, end_sim_seconds=0.125,
    )


def sample_tracer():
    t = Tracer()
    t.record(0, "send", machine=0, dst=1, tag="hi")
    t.record(1, "deliver", machine=1, src=0, tag="hi")
    t.record(2, "halt", machine=None)
    return t


class TestJsonSafe:
    def test_scalars_pass_through(self):
        for x in (None, True, 3, 2.5, "s"):
            assert _json_safe(x) == x

    def test_numpy_scalars_coerced(self):
        assert _json_safe(np.int64(7)) == 7
        assert _json_safe(np.float32(0.5)) == 0.5

    def test_containers(self):
        assert _json_safe((1, 2)) == [1, 2]
        assert _json_safe({1: (2,)}) == {"1": [2]}

    def test_exotic_falls_back_to_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert _json_safe(Odd()) == "<odd>"

    def test_everything_json_dumps(self):
        payload = {"a": np.int64(1), "b": (np.float64(2.0), {3: set()})}
        json.dumps(_json_safe(payload))


class TestChromeTrace:
    def test_document_is_valid_json(self):
        doc = chrome_trace(
            sample_tracer(),
            [sample_span()],
            [RoundRecord(0, 3, 512, 0, 512, 0.0, 0.0, 2)],
        )
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_required_keys_on_every_event(self):
        doc = chrome_trace(sample_tracer(), [sample_span()])
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev

    def test_span_becomes_complete_slice(self):
        doc = chrome_trace(spans=[sample_span(machine=2, start=1, end=4)])
        (slice_,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slice_["ts"] == 1 * ROUND_TICK_US
        assert slice_["dur"] == 3 * ROUND_TICK_US
        assert slice_["tid"] == 3  # machine 2 -> tid 3 (tid 0 = simulator)
        assert slice_["args"]["messages"] == 7

    def test_open_span_gets_minimum_duration(self):
        span = sample_span()
        span.end_round = None
        doc = chrome_trace(spans=[span])
        (slice_,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slice_["dur"] == 1

    def test_tracer_events_become_instants(self):
        doc = chrome_trace(sample_tracer())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 3
        global_ev = next(e for e in instants if e["name"] == "halt")
        assert global_ev["s"] == "g" and global_ev["tid"] == 0

    def test_timeline_becomes_counters(self):
        doc = chrome_trace(timeline=[RoundRecord(5, 3, 512, 3, 256, 0.0, 0.0, 2)])
        (counter,) = [
            e for e in doc["traceEvents"] if e["ph"] == "C" and e["name"] == "traffic"
        ]
        assert counter["ts"] == 5 * ROUND_TICK_US
        assert counter["args"]["messages_sent"] == 3

    def test_cumulative_track_is_the_timelines_running_sum(self):
        records = [
            RoundRecord(r, sent, 64 * sent, sent, 64, 0.0, 0.0, 2)
            for r, sent in enumerate([3, 0, 5, 1])
        ]
        doc = chrome_trace(timeline=records)
        track = [
            (e["ts"], e["args"]["messages"], e["args"]["bits"])
            for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "cumulative"
        ]
        assert track == [
            (r * ROUND_TICK_US, m, 64 * m) for r, m in enumerate([3, 3, 8, 9])
        ]

    def test_machines_named_as_threads(self):
        doc = chrome_trace(sample_tracer(), [sample_span(machine=2)])
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"simulator", "machine 0", "machine 1", "machine 2"} <= names

    def test_null_tracer_and_empty_inputs(self):
        doc = chrome_trace(NullTracer())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_write_chrome_trace(self, tmp_path):
        out = write_chrome_trace(
            tmp_path / "sub" / "trace.json", sample_tracer(), [sample_span()]
        )
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc


class TestJsonl:
    def _metrics(self):
        m = Metrics(rounds=4, compute_seconds=0.5)
        m.record_send("sel/p", 100)
        m.record_send("sel/p", 28)
        m.timeline.append(RoundRecord(0, 2, 128, 0, 128, 0.5, 0.0, 3))
        return m

    def test_file_round_trip(self, tmp_path):
        path = write_jsonl(
            tmp_path / "run.jsonl",
            sample_tracer(),
            [sample_span()],
            self._metrics(),
            meta={"name": "test", "k": 3},
        )
        meta, events, spans, metrics = read_jsonl(path)
        assert meta["name"] == "test" and meta["k"] == 3
        assert meta["events"] == 3 and meta["spans"] == 1
        assert [e.kind for e in events] == ["send", "deliver", "halt"]
        assert events[0].detail == {"dst": 1, "tag": "hi"}
        assert spans == [sample_span()]
        assert metrics == self._metrics()

    def test_stream_round_trip(self):
        buf = io.StringIO()
        assert write_jsonl(buf, sample_tracer(), [sample_span()]) is None
        buf.seek(0)
        meta, events, spans, metrics = read_jsonl(buf)
        assert meta["format"] == "repro.obs/jsonl"
        assert len(events) == 3 and len(spans) == 1
        assert metrics is None

    def test_every_line_is_json(self, tmp_path):
        path = write_jsonl(
            tmp_path / "run.jsonl", sample_tracer(), [sample_span()],
            self._metrics(),
        )
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["type"] in {"meta", "event", "span", "metrics"}

    def test_numpy_payloads_survive(self, tmp_path):
        t = Tracer()
        t.record(0, "pivot", machine=0, value=np.float64(1.5), count=np.int64(3))
        path = write_jsonl(tmp_path / "np.jsonl", t)
        _, events, _, _ = read_jsonl(path)
        assert events[0].detail == {"value": 1.5, "count": 3}

    def test_unknown_line_types_skipped(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "name": "x"}) + "\n"
            + json.dumps({"type": "hologram", "data": 1}) + "\n"
            + "\n"
        )
        meta, events, spans, metrics = read_jsonl(path)
        assert meta["name"] == "x"
        assert events == [] and spans == [] and metrics is None

    def test_convert_equivalence(self, tmp_path):
        """JSONL loaded back builds the same Chrome doc as direct export."""
        tracer, spans, metrics = sample_tracer(), [sample_span()], self._metrics()
        path = write_jsonl(tmp_path / "run.jsonl", tracer, spans, metrics)
        _, r_events, r_spans, r_metrics = read_jsonl(path)
        direct = chrome_trace(tracer, spans, metrics.timeline)
        loaded = chrome_trace(r_events, r_spans, r_metrics.timeline)
        assert direct == loaded
