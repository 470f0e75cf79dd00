"""Per-(src,dst) link counters: recording, views, merge, profiled runs."""

from __future__ import annotations

from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.metrics import Metrics


def star_program(ctx):
    """Leader 0 scatters one task to every worker; workers report back."""
    if ctx.rank == 0:
        for dst in range(1, ctx.k):
            ctx.send(dst, "task", dst)
        yield
        got = 0
        while got < ctx.k - 1:
            yield
            got += len(ctx.take("report"))
        return got
    msg = yield from ctx.recv_one("task")
    ctx.send(0, "report", msg.payload)
    yield
    return None


class TestRecordSend:
    def test_two_argument_call_leaves_link_maps_empty(self):
        m = Metrics()
        m.record_send("t", 64)
        assert m.messages == 1 and m.bits == 64
        assert m.per_link_messages == {} and m.per_link_bits == {}

    def test_src_dst_populate_traffic_matrix(self):
        m = Metrics()
        m.record_send("t", 64, src=1, dst=0)
        m.record_send("t", 36, src=1, dst=0)
        m.record_send("u", 10, src=0, dst=2)
        assert m.per_link_messages == {(1, 0): 2, (0, 2): 1}
        assert m.per_link_bits == {(1, 0): 100, (0, 2): 10}


class TestLinkViews:
    def _metrics(self) -> Metrics:
        m = Metrics()
        for src, dst, bits in [(1, 0, 8), (2, 0, 8), (3, 0, 8), (0, 3, 8)]:
            m.record_send("t", bits, src=src, dst=dst)
        return m

    def test_ingress_and_egress(self):
        m = self._metrics()
        assert m.ingress_messages() == {0: 3, 3: 1}
        assert m.egress_messages() == {1: 1, 2: 1, 3: 1, 0: 1}

    def test_hot_ingress_and_share(self):
        m = self._metrics()
        assert m.hot_ingress() == (0, 3)
        assert m.ingress_share() == 3 / 4
        assert m.ingress_share(3) == 1 / 4
        assert m.ingress_share(2) == 0.0

    def test_hot_ingress_tie_breaks_to_lowest_rank(self):
        m = Metrics()
        m.record_send("t", 8, src=0, dst=2)
        m.record_send("t", 8, src=0, dst=1)
        assert m.hot_ingress() == (1, 1)

    def test_unprofiled_run_degrades_to_none(self):
        m = Metrics()
        m.record_send("t", 8)  # counters but no link detail
        assert m.hot_ingress() is None
        assert m.ingress_share() is None


class TestMerge:
    def test_merge_sums_link_maps(self):
        a, b = Metrics(), Metrics()
        a.record_send("t", 8, src=1, dst=0)
        b.record_send("t", 8, src=1, dst=0)
        b.record_send("t", 8, src=2, dst=0)
        merged = a.merge(b)
        assert merged.per_link_messages == {(1, 0): 2, (2, 0): 1}
        assert merged.per_link_bits == {(1, 0): 16, (2, 0): 8}
        # Inputs untouched.
        assert a.per_link_messages == {(1, 0): 1}


class TestProfiledSimulation:
    def test_link_counters_match_totals(self):
        result = Simulator(
            k=4, program=FunctionProgram(star_program), observe="profile"
        ).run()
        m = result.metrics
        assert m.messages == 6  # 3 tasks out + 3 reports back
        assert sum(m.per_link_messages.values()) == m.messages
        assert sum(m.per_link_bits.values()) == m.bits

    def test_star_gather_leader_ingest_share(self):
        """Leader receives exactly k-1 reports: share = (k-1)/messages."""
        k = 4
        result = Simulator(
            k=k, program=FunctionProgram(star_program), observe="profile"
        ).run()
        m = result.metrics
        assert m.hot_ingress() == (0, k - 1)
        assert m.ingress_share() == (k - 1) / m.messages
        assert m.ingress_share() == 0.5  # scatter + gather, symmetric

    def test_profile_implies_timeline_with_top_fields(self):
        result = Simulator(
            k=4, program=FunctionProgram(star_program), observe="profile"
        ).run()
        timeline = result.metrics.timeline
        assert timeline, 'observe="profile" must record a timeline'
        traffic = [rec for rec in timeline if rec.messages_sent > 0]
        assert traffic
        for rec in traffic:
            assert rec.max_dst_messages >= 1
            assert rec.top_ingress is not None
        # The gather round: every worker hits the leader at once.
        assert any(
            rec.top_ingress == 0 and rec.max_dst_messages == 3 for rec in timeline
        )
        assert any(rec.top_link is not None for rec in timeline)

    def test_unprofiled_run_records_no_link_detail(self):
        result = Simulator(
            k=4, program=FunctionProgram(star_program), observe="spans"
        ).run()
        m = result.metrics
        assert m.per_link_messages == {} and m.per_link_bits == {}
        assert m.timeline == []


class TestSerialization:
    def test_round_trip_preserves_link_maps_and_top_fields(self):
        result = Simulator(
            k=4, program=FunctionProgram(star_program), observe="profile"
        ).run()
        m = result.metrics
        restored = Metrics.from_dict(m.to_dict())
        assert restored.per_link_messages == m.per_link_messages
        assert restored.per_link_bits == m.per_link_bits
        assert restored.timeline == m.timeline

    def test_link_keys_serialize_as_arrow_strings(self):
        m = Metrics()
        m.record_send("t", 8, src=3, dst=0)
        d = m.to_dict()
        assert d["per_link_messages"] == {"3->0": 1}
        assert Metrics.from_dict(d).per_link_messages == {(3, 0): 1}
