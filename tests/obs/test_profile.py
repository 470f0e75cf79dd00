"""Cost-model profiler: binding-term attribution, traffic matrices,
phase costs, critical path, flamegraph.

The hand-computed fixture pins the profiler's arithmetic to
``CostModel.round_cost`` exactly — every expected number below is
written out by hand from the α + bits/β + γ·msgs formula.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.metrics import Metrics, RoundRecord
from repro.kmachine.timing import DEFAULT_COST_MODEL, ZERO_COST_MODEL, CostModel
from repro.obs.profile import CostProfile, attribute_round
from repro.obs.spans import Span

# Round numbers so every expected value is exact in binary floats:
# alpha = 1s, beta = 100 bits/s, gamma = 0.5 s/message, idle = 0.25 s.
CM = CostModel(
    alpha_seconds=1.0,
    beta_bits_per_second=100.0,
    gamma_seconds_per_message=0.5,
    idle_round_seconds=0.25,
)


def _rec(round, sent, bits, max_link_bits, max_dst, top_link=None, top_ingress=None):
    """A timeline record whose comm charge comes from round_cost itself."""
    any_traffic = sent > 0 or max_link_bits > 0
    return RoundRecord(
        round=round,
        messages_sent=sent,
        bits_sent=bits,
        messages_delivered=sent,
        max_link_bits=max_link_bits,
        compute_seconds=0.0,
        comm_seconds=CM.round_cost(max_link_bits, any_traffic, max_dst),
        active_machines=4,
        max_dst_messages=max_dst,
        top_link=top_link,
        top_ingress=top_ingress,
    )


class TestAttributeRound:
    def test_alpha_binding_matches_round_cost_arithmetic(self):
        # alpha 1.0 > beta 50/100 = 0.5 > gamma 0.5*0 = 0.
        rc = attribute_round(_rec(0, 3, 50, 50, 0), CM)
        assert rc.alpha_seconds == 1.0
        assert rc.beta_seconds == 0.5
        assert rc.gamma_seconds == 0.5 * 0
        assert rc.binding == "alpha"
        assert rc.binding_link is None and rc.binding_machine is None
        assert rc.modelled_seconds == CM.round_cost(50, True, 0) == 1.5
        assert rc.consistent

    def test_beta_binding_names_the_busiest_link(self):
        # beta 300/100 = 3.0 > alpha 1.0 > gamma 0.5.
        rc = attribute_round(_rec(1, 2, 310, 300, 1, top_link=(2, 0)), CM)
        assert rc.beta_seconds == 3.0
        assert rc.binding == "beta"
        assert rc.binding_link == (2, 0)
        assert rc.binding_machine is None
        assert rc.modelled_seconds == CM.round_cost(300, True, 1) == 4.5
        assert rc.consistent

    def test_gamma_binding_names_the_busiest_receiver(self):
        # gamma 0.5*3 = 1.5 > alpha 1.0 > beta 10/100 = 0.1.
        rc = attribute_round(_rec(2, 3, 30, 10, 3, top_ingress=0), CM)
        assert rc.gamma_seconds == 1.5
        assert rc.binding == "gamma"
        assert rc.binding_machine == 0
        assert rc.binding_link is None
        assert rc.modelled_seconds == CM.round_cost(10, True, 3) == 2.6
        assert rc.consistent

    def test_idle_round_charges_idle_seconds(self):
        rc = attribute_round(_rec(3, 0, 0, 0, 0), CM)
        assert rc.binding == "idle"
        assert rc.idle_seconds == 0.25
        assert rc.modelled_seconds == CM.round_cost(0, False, 0) == 0.25
        assert rc.consistent

    def test_exact_tie_breaks_in_term_order(self):
        # alpha 1.0 == beta 100/100; earlier term wins.
        rc = attribute_round(_rec(4, 1, 100, 100, 0, top_link=(1, 2)), CM)
        assert rc.alpha_seconds == rc.beta_seconds == 1.0
        assert rc.binding == "alpha"
        assert rc.binding_link is None  # link only named when beta binds

    def test_zero_cost_model_attributes_none(self):
        rec = _rec(0, 3, 50, 50, 2)
        rec.comm_seconds = 0.0  # what ZERO_COST_MODEL actually charged
        rc = attribute_round(rec, ZERO_COST_MODEL)
        assert rc.binding == "none"
        assert rc.modelled_seconds == 0.0
        assert rc.consistent

    def test_inconsistent_when_models_disagree(self):
        rec = _rec(0, 3, 50, 50, 0)  # charged under CM
        rc = attribute_round(rec, DEFAULT_COST_MODEL)
        assert not rc.consistent


def _fixture_metrics() -> Metrics:
    """k=4 hand fixture: gamma-bound gather, idle gap, beta-bound stretch."""
    m = Metrics()
    # Star gather: each worker sends the leader one 100-bit message.
    for src in (1, 2, 3):
        m.record_send("report", 100, src=src, dst=0)
    # Leader sends worker 3 two fat replies.
    for _ in range(2):
        m.record_send("reply", 400, src=0, dst=3)
    m.timeline = [
        # Rounds 0-1: gamma binds at the leader (3 arrivals: 1.5 > 1.0 > 1.0).
        _rec(0, 3, 300, 100, 3, top_link=(1, 0), top_ingress=0),
        _rec(1, 3, 300, 100, 3, top_link=(1, 0), top_ingress=0),
        # Round 2: idle barrier.
        _rec(2, 0, 0, 0, 0),
        # Rounds 3-4: beta binds on link 0->3 (400/100 = 4.0).
        _rec(3, 1, 400, 400, 1, top_link=(0, 3), top_ingress=3),
        _rec(4, 1, 400, 400, 1, top_link=(0, 3), top_ingress=3),
    ]
    m.rounds = 5
    m.comm_seconds = sum(rec.comm_seconds for rec in m.timeline)
    return m


class TestCostProfileFixture:
    @pytest.fixture()
    def profile(self) -> CostProfile:
        return CostProfile(_fixture_metrics(), cost_model=CM)

    def test_consistent_and_k_inferred(self, profile):
        assert profile.consistent
        assert profile.k == 4  # inferred from the link counters

    def test_binding_rounds_and_seconds(self, profile):
        assert profile.binding_rounds() == {"gamma": 2, "idle": 1, "beta": 2}
        binding = profile.binding_seconds()
        # gamma rounds: 1.0 + 100/100 + 0.5*3 = 3.5 each; beta: 1 + 4 + 0.5 = 5.5.
        assert binding["gamma"] == 7.0
        assert binding["beta"] == 11.0
        assert binding["idle"] == 0.25

    def test_term_seconds_is_the_exact_additive_split(self, profile):
        terms = profile.term_seconds()
        assert terms == {
            "alpha": 4.0,  # 4 traffic rounds x 1.0
            "beta": 2 * 1.0 + 2 * 4.0,
            "gamma": 2 * 1.5 + 2 * 0.5,
            "idle": 0.25,
        }
        assert sum(terms.values()) == profile.metrics.comm_seconds

    def test_traffic_matrix(self, profile):
        msgs = profile.traffic_matrix("messages")
        assert msgs[1][0] == msgs[2][0] == msgs[3][0] == 1
        assert msgs[0][3] == 2
        assert sum(map(sum, msgs)) == profile.metrics.messages
        bits = profile.traffic_matrix("bits")
        assert bits[0][3] == 800
        with pytest.raises(ValueError):
            profile.traffic_matrix("packets")

    def test_leader_ingest_share(self, profile):
        # Leader got the k-1 = 3 gather reports out of 5 total messages.
        assert profile.leader == 0
        assert profile.leader_ingest_share() == 3 / 5

    def test_critical_path_merges_same_entity_and_breaks_on_idle(self, profile):
        segments = profile.critical_path()
        assert [(s.start_round, s.end_round, s.binding) for s in segments] == [
            (0, 1, "gamma"),
            (3, 4, "beta"),
        ]
        gamma_seg, beta_seg = segments
        assert gamma_seg.entity == "machine 0"
        assert gamma_seg.rounds == 2 and gamma_seg.seconds == 7.0
        assert gamma_seg.binding_seconds == 3.0  # the gamma term alone
        assert beta_seg.entity == "link 0->3"
        assert beta_seg.seconds == 11.0 and beta_seg.binding_seconds == 8.0
        # Busiest first.
        assert [s.entity for s in profile.top_segments(1)] == ["link 0->3"]

    def test_phase_costs_join_spans_with_the_round_clock(self):
        metrics = _fixture_metrics()
        spans = [
            Span(
                name="gather", machine=0, index=0, parent=None, depth=0,
                start_round=0, start_messages=0, start_bits=0,
                start_sim_seconds=0.0, end_round=3, end_messages=3,
                end_bits=300, end_sim_seconds=7.25,
            ),
            Span(
                name="reply", machine=0, index=1, parent=None, depth=0,
                start_round=3, start_messages=3, start_bits=300,
                start_sim_seconds=7.25, end_round=5, end_messages=5,
                end_bits=1100, end_sim_seconds=18.25,
            ),
        ]
        profile = CostProfile(metrics, cost_model=CM, spans=spans)
        phases = profile.phase_costs()
        assert [p.name for p in phases] == ["reply", "gather"]  # busiest first
        by_name = {p.name: p for p in phases}
        # gather window [0,3): two gamma rounds + the idle barrier.
        assert by_name["gather"].seconds == 7.25
        assert by_name["gather"].by_term == {"gamma": 7.0, "idle": 0.25}
        assert by_name["gather"].messages == 3
        # reply window [3,5): the two beta rounds.
        assert by_name["reply"].seconds == 11.0
        assert by_name["reply"].by_term == {"beta": 11.0}
        # Together the phases cover the whole modelled comm time.
        assert sum(p.seconds for p in phases) == metrics.comm_seconds

    def test_flamegraph_nests_children_under_parents(self):
        metrics = _fixture_metrics()
        spans = [
            Span(
                name="query", machine=0, index=0, parent=None, depth=0,
                start_round=0, start_messages=0, start_bits=0,
                start_sim_seconds=0.0, end_round=5, end_messages=5,
                end_bits=1100, end_sim_seconds=18.25,
            ),
            Span(
                name="gather", machine=0, index=1, parent=0, depth=1,
                start_round=0, start_messages=0, start_bits=0,
                start_sim_seconds=0.0, end_round=3, end_messages=3,
                end_bits=300, end_sim_seconds=7.25,
            ),
        ]
        forest = CostProfile(metrics, cost_model=CM, spans=spans).flamegraph()
        assert len(forest) == 1
        root = forest[0]
        assert root["name"] == "machine 0"
        assert root["value"] == 18.25
        [query] = root["children"]
        assert query["name"] == "query"
        assert [c["name"] for c in query["children"]] == ["gather"]

    def test_to_dict_is_json_ready_and_complete(self, profile):
        doc = profile.to_dict()
        text = json.dumps(doc)  # must not raise (tuple keys all converted)
        assert doc["format"] == "repro.obs/profile"
        assert doc["consistent"] is True
        assert doc["totals"]["messages"] == 5
        assert doc["ingress"] == {"0": 3, "3": 2}
        assert doc["leader"] == 0
        assert len(doc["rounds_detail"]) == 5
        assert json.loads(text)["traffic_matrix"]["messages"][0][3] == 2

    def test_summary_mentions_binding_and_leader(self, profile):
        text = profile.summary()
        assert "consistent" in text
        assert "leader ingest: machine 0" in text
        assert "beta" in text and "gamma" in text


def star_program(ctx):
    """Leader 0 scatters one task to each worker; workers report back."""
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


class TestStarGatherAcceptance:
    def test_leader_ingest_share_is_k_minus_1_over_messages(self):
        """ISSUE acceptance: star-shaped gather puts exactly k-1 of the
        run's messages at the leader."""
        k = 4
        result = Simulator(
            k=k,
            program=FunctionProgram(star_program),
            observe="profile",
            cost_model=CM,
        ).run()
        profile = CostProfile(result.metrics, cost_model=CM, k=k)
        assert profile.consistent
        assert profile.leader == 0
        assert profile.leader_ingest_share() == (k - 1) / result.metrics.messages
        # The gather round is gamma-bound at the leader under this model:
        # 3 simultaneous arrivals cost 1.5s > alpha 1.0 > beta.
        gather = [rc for rc in profile.rounds if rc.max_dst_messages == k - 1]
        assert gather and all(rc.binding == "gamma" for rc in gather)
        assert all(rc.binding_machine == 0 for rc in gather)


class TestEndToEndKNNRun:
    def test_profiled_knn_run_is_consistent_under_its_own_model(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 1.0, (4 * 64, 2))
        result = distributed_knn(
            points,
            query=points[0],
            l=16,
            k=4,
            seed=3,
            observe="profile",
            cost_model=DEFAULT_COST_MODEL,
        )
        profile = CostProfile(
            result.metrics,
            cost_model=DEFAULT_COST_MODEL,
            spans=result.raw.spans,
            k=4,
        )
        assert profile.consistent
        m = result.metrics
        assert sum(m.per_link_messages.values()) == m.messages
        assert sum(map(sum, profile.traffic_matrix("bits"))) == m.bits
        share = profile.leader_ingest_share()
        assert share is not None and 0.0 < share <= 1.0
        assert profile.phase_costs(), "spans must yield phase attribution"
        assert profile.critical_path()
        json.dumps(profile.to_dict())  # fully serializable
