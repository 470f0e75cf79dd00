"""Unit tests for the span recorder: nesting, deltas, serialization."""

from __future__ import annotations

from repro.kmachine import NULL_OBS, FunctionProgram, NullObs, Simulator
from repro.kmachine.metrics import Metrics
from repro.obs.spans import Span, SpanRecorder, phase_attribution


def make_recorder() -> tuple[SpanRecorder, Metrics]:
    m = Metrics()
    return SpanRecorder(m), m


class TestSpanDeltas:
    def test_delta_math(self):
        rec, m = make_recorder()
        obs = rec.for_machine(0)
        with obs.span("phase"):
            m.record_send("t", 100)
            m.record_send("t", 28)
            rec.round = 3
        (span,) = rec.spans
        assert span.closed
        assert span.rounds == 3
        assert span.messages == 2
        assert span.bits == 128
        assert span.sim_seconds == 0.0

    def test_open_span_reports_zero(self):
        rec, m = make_recorder()
        idx = rec.open("phase", machine=0)
        m.record_send("t", 64)
        span = rec.spans[idx]
        assert not span.closed
        assert span.rounds == 0 and span.messages == 0 and span.bits == 0

    def test_start_snapshot_excludes_prior_traffic(self):
        rec, m = make_recorder()
        m.record_send("t", 64)
        rec.round = 5
        with rec.for_machine(1).span("late"):
            m.record_send("t", 64)
        (span,) = rec.spans
        assert span.start_round == 5
        assert span.start_messages == 1
        assert span.messages == 1

    def test_sim_seconds_delta(self):
        rec, m = make_recorder()
        with rec.for_machine(0).span("compute"):
            m.compute_seconds += 0.5
            m.comm_seconds += 0.25
        assert rec.spans[0].sim_seconds == 0.75


class TestNesting:
    def test_parent_and_depth(self):
        rec, _ = make_recorder()
        obs = rec.for_machine(0)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        outer, inner = rec.spans
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1

    def test_siblings_share_parent(self):
        rec, _ = make_recorder()
        obs = rec.for_machine(0)
        with obs.span("outer"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        outer, a, b = rec.spans
        assert a.parent == b.parent == outer.index
        assert rec.children(outer.index) == [a, b]

    def test_machines_have_independent_stacks(self):
        rec, _ = make_recorder()
        i0 = rec.open("a", machine=0)
        i1 = rec.open("b", machine=1)
        assert rec.spans[i0].depth == 0
        assert rec.spans[i1].depth == 0
        assert rec.spans[i1].parent is None
        assert rec.machines() == [0, 1]

    def test_closing_parent_closes_open_children(self):
        rec, _ = make_recorder()
        outer = rec.open("outer", machine=0)
        inner = rec.open("inner", machine=0)
        rec.close(outer)
        assert rec.spans[inner].closed
        assert rec.spans[outer].closed

    def test_close_is_idempotent(self):
        rec, m = make_recorder()
        idx = rec.open("p", machine=0)
        rec.close(idx)
        end = rec.spans[idx].end_messages
        m.record_send("t", 64)
        rec.close(idx)
        assert rec.spans[idx].end_messages == end

    def test_close_all(self):
        rec, _ = make_recorder()
        rec.open("a", machine=0)
        rec.open("b", machine=0)
        rec.open("c", machine=1)
        rec.close_all()
        assert all(s.closed for s in rec.spans)

    def test_top_level_filter(self):
        rec, _ = make_recorder()
        obs = rec.for_machine(0)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        with rec.for_machine(1).span("other"):
            pass
        assert [s.name for s in rec.top_level()] == ["outer", "other"]
        assert [s.name for s in rec.top_level(machine=0)] == ["outer"]

    def test_exception_inside_span_still_closes(self):
        rec, _ = make_recorder()
        obs = rec.for_machine(0)
        try:
            with obs.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert rec.spans[0].closed

    def test_format_mentions_every_span(self):
        rec, _ = make_recorder()
        obs = rec.for_machine(0)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        text = rec.format()
        assert "machine 0:" in text
        assert "outer" in text and "inner" in text


class TestSerialization:
    def test_round_trip_closed(self):
        rec, m = make_recorder()
        with rec.for_machine(2).span("phase"):
            m.record_send("t", 64)
            rec.round = 4
        span = rec.spans[0]
        again = Span.from_dict(span.to_dict())
        assert again == span
        assert again.messages == span.messages

    def test_round_trip_open(self):
        span = Span(
            name="open", machine=0, index=0, parent=None, depth=0,
            start_round=2, start_messages=5, start_bits=100,
            start_sim_seconds=0.5,
        )
        again = Span.from_dict(span.to_dict())
        assert again == span
        assert not again.closed

    def test_from_dict_ignores_unknown_keys(self):
        rec, _ = make_recorder()
        with rec.for_machine(0).span("p"):
            pass
        d = rec.spans[0].to_dict()
        d["type"] = "span"
        assert Span.from_dict(d) == rec.spans[0]


class TestNullObs:
    def test_disabled_and_inert(self):
        assert NullObs.enabled is False
        with NULL_OBS.span("anything"):
            pass
        NULL_OBS.event("anything", foo=1)

    def test_span_handle_is_shared(self):
        assert NULL_OBS.span("a") is NULL_OBS.span("b")


class TestSimulatorIntegration:
    @staticmethod
    def _chat(ctx):
        with ctx.obs.span("chat"):
            if ctx.rank == 0:
                ctx.broadcast("hi", 1)
                yield
            else:
                yield from ctx.recv_one("hi")
        return None

    def test_spans_recorded_per_machine(self):
        res = Simulator(4, FunctionProgram(self._chat), seed=1, observe="spans").run()
        assert {s.machine for s in res.spans} == {0, 1, 2, 3}
        assert all(s.name == "chat" and s.closed for s in res.spans)
        leader = next(s for s in res.spans if s.machine == 0)
        assert leader.messages == res.metrics.messages == 3

    def test_spans_off_by_default(self):
        res = Simulator(4, FunctionProgram(self._chat), seed=1).run()
        assert res.spans == []
        assert isinstance(res.spans, list)

    def test_attribution_full_coverage(self):
        res = Simulator(4, FunctionProgram(self._chat), seed=1, observe="spans").run()
        att = phase_attribution(res.spans, res.metrics.messages)
        assert att.coverage == 1.0
        assert att.by_phase == {"chat": res.metrics.messages}


class TestPhaseAttribution:
    @staticmethod
    def _span(machine, name, start_m, end_m, index=0, depth=0):
        return Span(
            name=name, machine=machine, index=index, parent=None,
            depth=depth, start_round=0, start_messages=start_m,
            start_bits=0, start_sim_seconds=0.0, end_round=1,
            end_messages=end_m, end_bits=0, end_sim_seconds=0.0,
        )

    def test_picks_best_covering_machine(self):
        spans = [
            self._span(0, "a", 0, 10),   # leader covers 10 of 10
            self._span(1, "a", 0, 2),    # worker covers 2
        ]
        att = phase_attribution(spans, 10)
        assert att.machine == 0
        assert att.covered == 10
        assert att.coverage == 1.0

    def test_forced_machine(self):
        spans = [self._span(0, "a", 0, 10), self._span(1, "a", 0, 2)]
        att = phase_attribution(spans, 10, machine=1)
        assert att.machine == 1 and att.covered == 2

    def test_nested_spans_not_double_counted(self):
        spans = [
            self._span(0, "outer", 0, 10, index=0),
            self._span(0, "inner", 2, 8, index=1, depth=1),
        ]
        att = phase_attribution(spans, 10)
        assert att.covered == 10  # only depth-0

    def test_same_name_spans_sum(self):
        spans = [
            self._span(0, "iter", 0, 4, index=0),
            self._span(0, "iter", 4, 10, index=1),
        ]
        att = phase_attribution(spans, 12)
        assert att.by_phase == {"iter": 10}
        assert 0.0 < att.coverage < 1.0

    def test_empty_spans(self):
        att = phase_attribution([], 5)
        assert att.machine == -1
        assert att.covered == 0

    def test_zero_total_is_full_coverage(self):
        att = phase_attribution([], 0)
        assert att.coverage == 1.0

    def test_format_shows_coverage(self):
        att = phase_attribution([self._span(0, "a", 0, 5)], 10)
        text = att.format()
        assert "a" in text and "50.0%" in text and "machine 0" in text
