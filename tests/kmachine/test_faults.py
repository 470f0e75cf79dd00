"""Unit tests for the fault-injection subsystem (plans, injector, network, simulator)."""

from __future__ import annotations

import pytest

from repro.kmachine import (
    CorruptedPayload,
    Crash,
    FaultInjector,
    FaultPlan,
    FunctionProgram,
    LinkFaults,
    Message,
    Outage,
    PeerCrashedError,
    Simulator,
)
from repro.kmachine.errors import DeadlockError, FaultError
from repro.kmachine.network import Network


def make_msg(src=0, dst=1, tag="t", payload="x", bits=32):
    return Message(src=src, dst=dst, tag=tag, payload=payload, bits=bits)


# ----------------------------------------------------------------------
# plan validation and derived plans
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", ["drop", "duplicate", "corrupt", "reorder"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_bad_probabilities_rejected(self, field, bad):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(**{field: bad})
        with pytest.raises(ValueError, match="probability"):
            LinkFaults(**{field: bad})

    def test_duplicate_crash_ranks_rejected(self):
        with pytest.raises(ValueError, match="one crash event per rank"):
            FaultPlan(crashes=(Crash(1, 3), Crash(1, 7)))

    def test_negative_crash_fields_rejected(self):
        with pytest.raises(ValueError):
            Crash(-1, 0)
        with pytest.raises(ValueError):
            Crash(0, -1)

    def test_empty_outage_window_rejected(self):
        with pytest.raises(ValueError, match="empty or negative"):
            Outage(0, 1, start=5, end=5)
        with pytest.raises(ValueError, match="empty or negative"):
            Outage(0, 1, start=5, end=3)

    def test_self_loop_outage_rejected(self):
        with pytest.raises(ValueError, match="distinct endpoints"):
            Outage(2, 2, start=0, end=1)


class TestFaultPlanQueries:
    def test_for_link_uses_override_instead_of_defaults(self):
        plan = FaultPlan(drop=0.5, links={(0, 1): LinkFaults(corrupt=0.9)})
        assert plan.for_link(0, 1) == LinkFaults(corrupt=0.9)
        assert plan.for_link(1, 0) == LinkFaults(drop=0.5)

    def test_trivial(self):
        assert FaultPlan().trivial
        assert not FaultPlan(drop=0.1).trivial
        assert not FaultPlan(links={(0, 1): LinkFaults(reorder=0.2)}).trivial
        assert not FaultPlan(outages=(Outage(0, 1, 0, 3),)).trivial
        assert not FaultPlan(crashes=(Crash(0, 1),)).trivial

    def test_outage_covers_window_and_symmetry(self):
        sym = Outage(0, 1, start=2, end=4)
        assert sym.covers(0, 1, 2) and sym.covers(1, 0, 3)
        assert not sym.covers(0, 1, 4)  # end-exclusive
        assert not sym.covers(0, 2, 3)  # other link
        oneway = Outage(0, 1, start=2, end=4, symmetric=False)
        assert oneway.covers(0, 1, 2) and not oneway.covers(1, 0, 2)

    def test_without_crashes(self):
        plan = FaultPlan(crashes=(Crash(0, 1), Crash(2, 5)))
        assert plan.without_crashes((0,)).crashes == (Crash(2, 5),)
        assert plan.without_crashes().crashes == ()
        # other fields untouched
        assert plan.without_crashes((0,)).seed == plan.seed

    def test_restricted_to(self):
        plan = FaultPlan(
            crashes=(Crash(1, 2), Crash(7, 3)),
            outages=(Outage(0, 1, 0, 2), Outage(0, 9, 0, 2)),
            links={(0, 1): LinkFaults(drop=0.1), (8, 0): LinkFaults(drop=0.2)},
        )
        small = plan.restricted_to(4)
        assert small.crashes == (Crash(1, 2),)
        assert small.outages == (Outage(0, 1, 0, 2),)
        assert set(small.links) == {(0, 1)}


# ----------------------------------------------------------------------
# injector decisions
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_certain_drop(self):
        inj = FaultInjector(FaultPlan(drop=1.0))
        assert inj.on_submit(make_msg()) == []

    def test_certain_duplicate(self):
        inj = FaultInjector(FaultPlan(duplicate=1.0))
        out = inj.on_submit(make_msg())
        assert len(out) == 2 and out[0] == out[1]

    def test_certain_corrupt_wraps_payload_same_bits(self):
        inj = FaultInjector(FaultPlan(corrupt=1.0))
        [out] = inj.on_submit(make_msg(payload=("a", 1)))
        assert isinstance(out.payload, CorruptedPayload)
        assert out.payload.original == ("a", 1)
        assert out.bits == make_msg().bits

    def test_trivial_link_passes_message_through_unchanged(self):
        inj = FaultInjector(FaultPlan())
        msg = make_msg()
        assert inj.on_submit(msg) == [msg]

    def test_crashed_endpoint_drops(self):
        inj = FaultInjector(FaultPlan())
        inj.mark_crashed(1)
        assert inj.on_submit(make_msg(src=0, dst=1)) == []
        assert inj.on_submit(make_msg(src=1, dst=2)) == []
        assert inj.on_submit(make_msg(src=0, dst=2)) != []

    def test_outage_drops_only_inside_window(self):
        inj = FaultInjector(FaultPlan(outages=(Outage(0, 1, start=2, end=4),)))
        inj.begin_round(1)
        assert inj.on_submit(make_msg()) != []
        inj.begin_round(2)
        assert inj.on_submit(make_msg()) == []
        assert inj.on_submit(make_msg(src=1, dst=0)) == []  # symmetric
        inj.begin_round(4)
        assert inj.on_submit(make_msg()) != []

    def test_crashes_due_sorted_and_single_shot(self):
        inj = FaultInjector(FaultPlan(crashes=(Crash(3, 5), Crash(1, 5), Crash(0, 6))))
        assert inj.crashes_due(5) == [1, 3]
        inj.mark_crashed(1)
        assert inj.crashes_due(5) == [3]
        assert inj.crashes_due(6) == [0]

    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=7, drop=0.3, duplicate=0.3, corrupt=0.3)
        msgs = [make_msg(src=i % 3, dst=(i + 1) % 3, payload=i) for i in range(60)]
        inj_a, inj_b = FaultInjector(plan), FaultInjector(plan)
        fates_a = [tuple(m.payload for m in inj_a.on_submit(msg)) for msg in msgs]
        fates_b = [tuple(m.payload for m in inj_b.on_submit(msg)) for msg in msgs]
        assert fates_a == fates_b

    def test_different_seed_different_decisions(self):
        msgs = [make_msg(payload=i) for i in range(200)]
        inj_a = FaultInjector(FaultPlan(seed=1, drop=0.5))
        inj_b = FaultInjector(FaultPlan(seed=2, drop=0.5))
        fates_a = [len(inj_a.on_submit(m)) for m in msgs]
        fates_b = [len(inj_b.on_submit(m)) for m in msgs]
        assert fates_a != fates_b


# ----------------------------------------------------------------------
# network integration
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_drop_recorded_in_link_stats(self):
        net = Network(k=2)
        net.fault_injector = FaultInjector(FaultPlan(drop=1.0))
        net.submit(make_msg())
        assert net.in_flight() == 0
        assert net.link_stats[(0, 1)].dropped == 1

    def test_duplicate_consumes_bandwidth(self):
        net = Network(k=2, bandwidth_bits=64)
        net.fault_injector = FaultInjector(FaultPlan(duplicate=1.0))
        net.submit(make_msg(bits=32))
        assert net.in_flight() == 2
        assert net.total_bits == 64

    def test_reorder_swaps_adjacent_queue_entries(self):
        net = Network(k=2)
        net.fault_injector = FaultInjector(FaultPlan(reorder=1.0))
        net.submit(make_msg(payload="first"))
        net.submit(make_msg(payload="second"))
        [dst_msgs] = net.step().values()
        assert [m.payload for m in dst_msgs] == ["second", "first"]

    def test_no_reorder_preserves_fifo(self):
        net = Network(k=2)
        net.fault_injector = FaultInjector(FaultPlan(drop=0.0))
        for i in range(5):
            net.submit(make_msg(payload=i))
        [dst_msgs] = net.step().values()
        assert [m.payload for m in dst_msgs] == list(range(5))

    def test_reorder_never_displaces_partial_head(self):
        # 48-bit head over a 32-bit link: one step leaves it partially
        # transmitted; a reorder must not displace it.
        net = Network(k=2, bandwidth_bits=32)
        net.fault_injector = FaultInjector(FaultPlan(reorder=1.0))
        net.submit(make_msg(payload="big", bits=48))
        assert net.step() == {}
        net.submit(make_msg(payload="late", bits=16))
        deliveries = net.step()
        # had the swap fired, "late" would finish first
        assert [m.payload for m in deliveries[1]] == ["big", "late"]

    def test_purge_machine(self):
        net = Network(k=3)
        net.submit(make_msg(src=0, dst=1))
        net.submit(make_msg(src=1, dst=2))
        net.submit(make_msg(src=2, dst=0, payload="keep"))
        purged = net.purge_machine(1)
        assert {(m.src, m.dst) for m in purged} == {(0, 1), (1, 2)}
        assert net.link_stats[(0, 1)].dropped == 1
        assert net.in_flight() == 1

    def test_drop_all_returns_list_and_resets_round_budget(self):
        net = Network(k=2, bandwidth_bits=32, policy="strict")
        net.submit(make_msg(bits=32))
        dropped = net.drop_all()
        assert [m.tag for m in dropped] == ["t"]
        assert net.link_stats[(0, 1)].dropped == 1
        assert net.in_flight() == 0
        # budget cleared: a fresh full-size submission must not raise
        net.submit(make_msg(bits=32))


# ----------------------------------------------------------------------
# simulator integration: crash-stop
# ----------------------------------------------------------------------
def chatter(ctx):
    """Every machine sends its rank to every peer each round, forever-ish."""
    for _ in range(6):
        for dst in range(ctx.k):
            if dst != ctx.rank:
                ctx.send(dst, "beat", ctx.rank)
        yield
    return ctx.rank


class TestSimulatorCrash:
    def test_crash_halts_machine_and_accounts(self):
        sim = Simulator(
            k=3,
            program=FunctionProgram(chatter),
            faults=FaultPlan(crashes=(Crash(1, 2),)),
        )
        result = sim.run()
        assert result.outputs[1] is None
        assert result.outputs[0] == 0 and result.outputs[2] == 2
        assert result.metrics.crashed == [(1, 2)]
        assert sim.crashed_ranks == {1}
        assert result.metrics.crash_drops > 0

    def test_crash_notice_aborts_blocked_receive(self):
        def waiter(ctx):
            if ctx.rank == 0:
                # rank 1 crashes before it can answer.
                msg = yield from ctx.recv_one("answer", src=1)
                return msg.payload
            yield
            yield
            ctx.send(0, "answer", 42)
            yield
            return None

        sim = Simulator(
            k=2,
            program=FunctionProgram(waiter),
            faults=FaultPlan(crashes=(Crash(1, 1),)),
        )
        with pytest.raises(PeerCrashedError) as exc_info:
            sim.run()
        assert exc_info.value.rank == 0
        assert exc_info.value.crashed == (1,)
        assert sim.metrics.crashed == [(1, 1)]

    def test_fault_error_not_wrapped_in_protocol_error(self):
        def waiter(ctx):
            if ctx.rank == 0:
                yield from ctx.recv_one("never", src=1)
            else:
                while True:
                    yield

        sim = Simulator(
            k=2,
            program=FunctionProgram(waiter),
            faults=FaultPlan(crashes=(Crash(1, 1),)),
            max_rounds=50,
        )
        with pytest.raises(FaultError):
            sim.run()

    def test_no_notice_means_timeout_detection_only(self):
        def waiter(ctx):
            if ctx.rank == 0:
                yield from ctx.recv_one("never", src=1)
            else:
                while True:
                    yield

        sim = Simulator(
            k=2,
            program=FunctionProgram(waiter),
            faults=FaultPlan(crashes=(Crash(1, 1),), notify_crashes=False),
            max_rounds=30,
        )
        with pytest.raises(DeadlockError):
            sim.run()

    def test_crash_in_the_silent_last_round_falls_after_the_run(self):
        """A 1-round run: rank 1 consumes its message and halts in round
        1, which sends nothing and is not counted.  A crash due there
        leaves the run as it was; one due in round 0 does not."""

        def relay(ctx):
            if ctx.rank == 0:
                ctx.send(1, "x", 7)
                yield
                return 0
            msg = yield from ctx.recv_one("x")
            return msg.payload

        clean = Simulator(k=2, program=FunctionProgram(relay)).run()
        assert clean.metrics.rounds == 1 and clean.outputs == [0, 7]
        late = Simulator(
            k=2, program=FunctionProgram(relay), faults=FaultPlan(crashes=(Crash(1, 1),))
        )
        result = late.run()
        assert result.outputs == [0, 7]
        assert result.metrics.crashed == [] and late.crashed_ranks == set()
        early = Simulator(
            k=2, program=FunctionProgram(relay), faults=FaultPlan(crashes=(Crash(1, 0),))
        ).run()
        assert early.outputs[1] is None and early.metrics.crashed == [(1, 0)]

    def test_crash_after_an_episode_fires_in_the_next(self):
        def relay(ctx):
            if ctx.rank == 0:
                ctx.send(1, "x", 7)
                yield
                return 0
            msg = yield from ctx.recv_one("x")
            return msg.payload

        sim = Simulator(
            k=2, program=FunctionProgram(relay), faults=FaultPlan(crashes=(Crash(1, 1),))
        )
        assert sim.run().outputs == [0, 7]
        second = sim.run_episode(FunctionProgram(relay))
        assert second.outputs[1] is None
        assert sim.crashed_ranks == {1}
        assert [rank for rank, _ in sim.metrics.crashed] == [1]

    def test_crash_at_round_zero_never_runs(self):
        ran = []

        def prog(ctx):
            ran.append(ctx.rank)
            return ctx.rank
            yield

        result = Simulator(
            k=2,
            program=FunctionProgram(prog),
            faults=FaultPlan(crashes=(Crash(0, 0),)),
        ).run()
        assert ran == [1]
        assert result.outputs == [None, 1]


class TestSimulatorLinkFaults:
    def test_drops_counted_in_metrics(self):
        result = Simulator(
            k=3,
            program=FunctionProgram(chatter),
            faults=FaultPlan(seed=3, drop=0.5),
        ).run()
        assert result.metrics.fault_drops > 0

    def test_corruption_reaches_unprotected_program(self):
        seen = []

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, "data", ("payload",))
                yield
                return None
            msg = yield from ctx.recv_one("data")
            seen.append(msg.payload)
            return None

        Simulator(
            k=2,
            program=FunctionProgram(prog),
            faults=FaultPlan(corrupt=1.0),
        ).run()
        [payload] = seen
        assert isinstance(payload, CorruptedPayload)
        assert payload.original == ("payload",)

    def test_trace_records_fault_events(self):
        result = Simulator(
            k=3,
            program=FunctionProgram(chatter),
            faults=FaultPlan(seed=5, drop=0.4, crashes=(Crash(2, 3),)),
            observe="trace",
        ).run()
        kinds = {e.kind for e in result.tracer.events}
        assert "fault-drop" in kinds
        assert "crash" in kinds
