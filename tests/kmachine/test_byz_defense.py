"""Unit tests for the Byzantine defense library (`repro.kmachine.byz`).

Covers the pure pieces (config math, blame attribution, robust
reductions) and the quorum primitives run on a real simulator with a
hand-scripted liar program — the adversary here is written *into the
program*, not injected by the NIC layer, so each test controls the
exact lie the defense must survive.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.dyn.balance import trimmed_ratio
from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.byz import (
    ByzConfig,
    ByzantineError,
    SuspicionTracker,
    aggregate_suspicions,
    attribute_blame,
    confirm_value,
    confirmed_broadcast,
    gather_quorum,
    median_of_reports,
    receive_confirmed,
    recv_from,
    recv_upto,
    robust_loads,
    selection_iteration_cap,
    serve_gather,
    suspicions,
)
from repro.kmachine.errors import FaultError
from repro.kmachine.faults import ByzantinePlan, Liar
from repro.kmachine.schema import Echo, SuspicionNotice


# -- config math --------------------------------------------------------

def test_config_validates_quorum_precondition() -> None:
    ByzConfig(f=0).validate(1)  # f = 0 imposes nothing
    ByzConfig(f=2).validate(7)
    with pytest.raises(ValueError, match="needs k >= 7"):
        ByzConfig(f=2).validate(6)
    with pytest.raises(ValueError, match="f must be >= 0"):
        ByzConfig(f=-1)


def test_config_live_and_workers_respect_quarantine() -> None:
    cfg = ByzConfig(f=1, quarantined=frozenset({2}))
    assert cfg.live(5) == [0, 1, 3, 4]
    assert cfg.live(5, 4) == [0, 1, 3]
    assert cfg.workers(5, leader=0) == [1, 3, 4]


def test_op_budget_scales_with_k_and_dominates_simple_timeouts() -> None:
    cfg = ByzConfig(f=1, timeout_rounds=8)
    assert cfg.confirm_timeout_rounds == 2 * 8 + 4
    assert cfg.op_timeout_rounds == 4 * 8 + 8
    # the arrival-extended echo gather term: 2·k(k−1)
    assert cfg.op_budget(7) == 4 * 8 + 2 * 7 * 6 + 8
    assert cfg.op_budget(7) > cfg.op_timeout_rounds
    assert cfg.op_budget(10) > cfg.op_budget(7)


def test_byzantine_error_carries_suspects() -> None:
    err = ByzantineError("boom", suspects=(3, 1, 3))
    assert isinstance(err, FaultError)
    assert err.suspects == (1, 3)


# -- suspicion ledger ---------------------------------------------------

def test_tracker_orders_by_weight_then_rank() -> None:
    t = SuspicionTracker()
    t.accuse(4, "a")
    t.accuse(2, "b")
    t.accuse(2, "c")
    t.fold_notice(SuspicionNotice(suspect=1, reason="relayed"))
    assert t.suspects() == [2, 1, 4]
    assert t.counts[2] == 2
    assert any("relayed" in r for r in t.reasons[1])


def test_aggregate_suspicions_sums_across_contexts_and_excludes() -> None:
    a, b = SuspicionTracker(), SuspicionTracker()
    a.accuse(3, "x")
    a.accuse(3, "y")
    b.accuse(3, "z")
    b.accuse(0, "w")
    contexts = [
        SimpleNamespace(_byz_suspicions=a),
        SimpleNamespace(_byz_suspicions=b),
        SimpleNamespace(),  # never accused anyone: no tracker attribute
    ]
    assert aggregate_suspicions(contexts) == {3: 3, 0: 1}
    assert aggregate_suspicions(contexts, exclude={3}) == {0: 1}


def test_attribute_blame_layers() -> None:
    # 1 <= |mismatch| <= f: trust the realised-output evidence
    assert attribute_blame(
        mismatch=[2], weights={5: 9}, f=2, leader=0
    ) == (2,)
    # no mismatch: heaviest suspicions, capped at f
    assert attribute_blame(
        mismatch=[], weights={5: 9, 1: 9, 4: 1}, f=2, leader=0
    ) == (1, 5)
    # over-wide implication: only a lying leader can frame that many
    assert attribute_blame(
        mismatch=[1, 2, 3], weights={}, f=1, leader=0
    ) == (0,)
    # nothing at all: the leader presided over the failure
    assert attribute_blame(mismatch=[], weights={}, f=1, leader=6) == (6,)
    # repeat offender adds the leader on top of the evidence
    assert attribute_blame(
        mismatch=[2], weights={}, f=2, leader=0, repeat_offender=True
    ) == (0, 2)


def test_attribute_blame_tie_across_cap_blames_leader() -> None:
    # four workers equally accused, f=1: a lying leader framed them all
    assert attribute_blame(
        mismatch=[], weights={1: 2, 2: 2, 3: 2, 4: 2}, f=1, leader=0
    ) == (0,)
    # a tie inside the cap still names the tied ranks
    assert attribute_blame(
        mismatch=[], weights={3: 5, 1: 5, 2: 1}, f=2, leader=0
    ) == (1, 3)


def test_equivocating_leader_excluded_within_attempt_budget() -> None:
    """An equivocating rank-0 NIC frames every worker equally; recovery
    must exclude it rather than honest ranks, and answer exactly."""
    rng = np.random.default_rng(1262)
    points = rng.uniform(0.0, 1.0, (150, 2))
    query = rng.uniform(0.0, 1.0, 2)
    l = int(rng.integers(1, 16))
    plan = ByzantinePlan(seed=58852, liars=(Liar(rank=0, strategy="equivocate"),))
    result = distributed_knn(
        points, query, l, 5, seed=1262, byzantine=plan, byzantine_f=1,
        timeout_rounds=6,
    )
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    np.testing.assert_allclose(np.sort(result.distances), np.sort(d)[:l])
    assert result.recovery.excluded == [0]
    assert result.recovery.attempts <= 2 * plan.f + 2


# -- robust reductions --------------------------------------------------

def test_median_of_reports_ignores_non_finite() -> None:
    assert median_of_reports([1.0, 2.0, float("inf"), 3.0]) == 2.0
    assert median_of_reports([]) == 0.0


def test_robust_loads_clips_at_three_medians() -> None:
    loads = robust_loads([100, 100, 100, 10_000, -5, float("nan")], f=1)
    assert loads.dtype == np.int64
    assert loads[3] == 300  # clipped to 3x median
    assert loads[4] == 0 and loads[5] == 0


def test_trimmed_ratio_drops_inflated_lies() -> None:
    loads = [100, 100, 100, 100_000]
    assert trimmed_ratio(loads, f=0) > 2.0  # max/mean blown up by the lie
    assert trimmed_ratio(loads, f=1) == pytest.approx(1.0)
    assert trimmed_ratio([5, 5], f=2) == 0.0


def test_selection_iteration_cap_dominates_honest_bound() -> None:
    cap = selection_iteration_cap(10_000, k=8)
    honest = 3.0 * np.log(10_000) / np.log(1.5)
    assert cap >= honest + 2 * 8
    assert selection_iteration_cap(0, 4) >= 2 * 4 + 16


# -- receive primitives on a real simulator -----------------------------

def _run(program_fn, k, **sim_kwargs):
    sim = Simulator(k=k, program=FunctionProgram(program_fn), **sim_kwargs)
    return sim.run().outputs


def test_recv_from_tolerates_silence_and_strays() -> None:
    def body(ctx):
        if ctx.rank == 0:
            got = yield from recv_from(ctx, "t", [1, 2, 3], timeout_rounds=4)
            return got
        if ctx.rank == 1:
            ctx.send(0, "t", "one")
        # rank 2 stays silent; rank 3 isn't in existence (k = 3)
        yield
        return None

    outputs = _run(body, 3)
    assert outputs[0] == {1: "one"}


def test_recv_upto_cuts_adversarial_trickle() -> None:
    """One message every timeout-1 rounds: the arrival-extended cap
    ends the gather in O(timeout + received), not unbounded."""
    timeout = 4

    def body(ctx):
        if ctx.rank == 0:
            start = ctx.round
            got = yield from recv_upto(ctx, "t", 100, timeout)
            return (len(got), ctx.round - start)
        for i in range(30):
            if i % (timeout - 1) == 0:
                ctx.send(0, "t", i)
            yield
        return None

    received, waited = _run(body, 2)[0]
    assert received < 30
    assert waited <= timeout + 2 * received + 1


def test_gather_quorum_detects_equivocation() -> None:
    """Origin 1 tells the leader 10 and everyone else 99: plurality
    resolves to the honest-majority view and rank 1 is accused."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            resolved = yield from gather_quorum(ctx, cfg, "v", "e", tracker)
            return (resolved, tracker.suspects())
        if ctx.rank == 1:  # equivocator: per-recipient values
            ctx.send(0, "v", 10)
            for dst in (2, 3, 4):
                ctx.send(dst, "v", 99)
            yield
            heard = yield from recv_from(ctx, "v", [2, 3, 4], cfg.timeout_rounds)
            for src, value in heard.items():
                ctx.send(0, "e", Echo(origin=src, value=value))
            yield
            return None
        yield from serve_gather(ctx, 0, cfg, "v", "e", ctx.rank * 100)
        return None

    resolved, suspects = _run(body, 5)[0]
    assert resolved[2] == 200 and resolved[3] == 300 and resolved[4] == 400
    assert resolved[1] == 99  # the value the honest majority observed
    assert 1 in suspects


def test_confirmed_broadcast_corrects_equivocating_leader() -> None:
    """Leader sends 7 to one victim and 5 to the rest: every honest
    worker adopts the quorum value 5 and the victim accuses the leader."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            for dst in range(1, ctx.k):
                ctx.send(dst, "out", 7 if dst == 1 else 5)
            yield
            return None
        adopted = yield from receive_confirmed(
            ctx, 0, cfg, "out", "echo", tracker
        )
        return (adopted, tracker.suspects())

    outputs = _run(body, 5)
    for rank in range(1, 5):
        adopted, suspects = outputs[rank]
        assert adopted == 5
    assert 0 in outputs[1][1]  # the victim blames the leader


def test_confirm_value_aborts_on_wide_split() -> None:
    """No value can reach a W−f quorum: the confirm fails with the
    leader as suspect instead of silently adopting a minority view."""
    cfg = ByzConfig(f=1, timeout_rounds=4)

    def body(ctx):
        tracker = suspicions(ctx)
        if ctx.rank == 0:
            yield from confirmed_broadcast(ctx, cfg, "out", None)
            return None
        try:
            yield from confirm_value(
                ctx, 0, cfg, ctx.rank * 1000, "echo", tracker
            )
        except ByzantineError as err:
            return err.suspects
        return "adopted"

    outputs = _run(body, 5)
    for rank in range(1, 5):
        assert outputs[rank] == (0,)
