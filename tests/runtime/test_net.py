"""TCP backend: parity with the simulator, crash mapping, calibration.

The asyncio-TCP backend runs each machine as a *subprocess* speaking
the strict binary codec over persistent sockets.  Program functions
must therefore live in an importable module — here that is this test
module itself (``tests.runtime.test_net``), which peer processes can
import because pytest puts the repo root on ``sys.path`` and the
coordinator forwards it via ``PYTHONPATH``.

Parity contract under test (the PR's acceptance criteria):

* ``distributed_select`` / ``distributed_knn`` with ``backend="net"``
  return answers *identical* to the in-process simulator for the same
  seed (round counts may differ — the TCP backend does not enforce the
  per-round bandwidth cap, see DESIGN.md §13).
* A killed peer surfaces as the same :class:`PeerCrashedError` the
  simulator raises, and the driver's re-shard/re-elect recovery then
  produces the same answers.
* Zero pickle calls on the per-round path
  (``NetSimulator.hot_path_pickle_calls() == 0``).
* A measured :class:`CostModel` predicts the round-phase wall of a real
  run within 3× and plugs into :class:`CostProfile` unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn, distributed_select
from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.errors import PeerCrashedError
from repro.kmachine.faults import Crash, FaultPlan
from repro.runtime import codec
from repro.runtime.calibrate import calibrate, predicted_wall_seconds
from repro.runtime.net import NetOptions, NetSimulator
from repro.serve.session import ClusterSession, QueryJob

pytestmark = pytest.mark.slow  # spawns real subprocess clusters


def echo(ctx):
    if ctx.rank == 0:
        ctx.broadcast("hi", ctx.rank)
        yield
        msgs = yield from ctx.recv("re", ctx.k - 1)
        return sorted(m.payload for m in msgs)
    msg = yield from ctx.recv_one("hi")
    ctx.send(0, "re", ctx.rank * 10)
    yield
    return msg.payload


def doubler(ctx):
    return ctx.local * 2
    yield


def my_machine_id(ctx):
    return ctx.machine_id
    yield


def spanned_probe(ctx):
    with ctx.obs.span("net/probe"):
        if ctx.rank == 0:
            ctx.send(1, "p", 1)
            yield
        else:
            yield from ctx.recv_one("p")
    return None


def big_block(ctx):
    """Ships a zero-copy ndarray peer-to-peer; returns its checksum."""
    if ctx.rank == 0:
        ctx.send(1, "blk", ctx.local)
        yield
        return None
    if ctx.rank == 1:
        msg = yield from ctx.recv_one("blk")
        return float(np.sum(msg.payload))
    yield
    return None


class TestBasics:
    def test_echo_protocol(self):
        sim = NetSimulator(3, FunctionProgram(echo), seed=1)
        res = sim.run()
        assert res.outputs[0] == [10, 20]
        assert res.outputs[1] == res.outputs[2] == 0
        assert res.metrics.messages == 4
        assert sim.hot_path_pickle_calls() == 0

    def test_inputs_distributed(self):
        res = NetSimulator(
            3, FunctionProgram(doubler), inputs=[1, 2, 3], seed=0
        ).run()
        assert res.outputs == [2, 4, 6]

    def test_zero_copy_payload_roundtrips(self):
        block = np.arange(1 << 14, dtype=np.float64)
        codec.reset_pickle_fallbacks()
        sim = NetSimulator(
            2, FunctionProgram(big_block), inputs=[block, None], seed=0
        )
        res = sim.run()
        assert res.outputs[1] == pytest.approx(float(np.sum(block)))
        assert sim.hot_path_pickle_calls() == 0

    def test_machine_ids_match_simulator(self):
        """Same seed → same drawn machine IDs → same protocol decisions."""
        net = NetSimulator(4, FunctionProgram(my_machine_id), seed=42).run()
        ref = Simulator(4, FunctionProgram(my_machine_id), seed=42).run()
        assert net.outputs == ref.outputs

    def test_spans_collected(self):
        sim = NetSimulator(
            2, FunctionProgram(spanned_probe), seed=0, observe="spans"
        )
        res = sim.run()
        assert any(s.name == "net/probe" for s in res.spans)


class TestValidation:
    def test_rejects_byzantine(self):
        from repro.kmachine.faults import ByzantinePlan, Liar

        with pytest.raises(ValueError, match="Byzantine"):
            NetSimulator(
                2,
                FunctionProgram(echo),
                byzantine=ByzantinePlan(liars=(Liar(1, "forge"),)),
            )

    def test_rejects_reliable(self):
        with pytest.raises(ValueError, match="reliable"):
            NetSimulator(2, FunctionProgram(echo), reliable=True)

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="'off', 'spans', 'profile'.*'trace'"):
            NetSimulator(2, FunctionProgram(echo), observe="trace")

    def test_rejects_probabilistic_faults(self):
        plan = FaultPlan(drop=0.5)
        with pytest.raises(ValueError, match="crash-stop"):
            NetSimulator(2, FunctionProgram(echo), faults=plan)

    def test_rejects_silent_crashes(self):
        plan = FaultPlan(
            crashes=(Crash(rank=1, round=2),), notify_crashes=False
        )
        with pytest.raises(ValueError, match="notify_crashes"):
            NetSimulator(2, FunctionProgram(echo), faults=plan)

    def test_run_episode_requires_persistent(self):
        sim = NetSimulator(2, FunctionProgram(echo), seed=0)
        with pytest.raises(RuntimeError, match="persistent"):
            sim.run_episode(FunctionProgram(echo))
        sim.close()


class TestDriverParity:
    def test_select_identical_to_simulator(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1024 * 4)
        net = distributed_select(values, 16, 4, seed=3, backend="net")
        ref = distributed_select(values, 16, 4, seed=3)
        assert np.array_equal(net.ids, ref.ids)
        assert np.allclose(net.values, ref.values)

    def test_knn_k8_identical_to_simulator(self):
        """Acceptance criterion: k=8 knn answers identical to the sim."""
        rng = np.random.default_rng(7)
        points = rng.standard_normal((512 * 8, 6))
        query = rng.standard_normal(6)
        net = distributed_knn(points, query, 8, 8, seed=7, backend="net")
        ref = distributed_knn(points, query, 8, 8, seed=7)
        assert np.array_equal(net.ids, ref.ids)
        assert np.allclose(net.distances, ref.distances)

    def test_net_options_rejected_on_sim_backend(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="net_options"):
            distributed_select(
                rng.standard_normal(64), 4, 2, net_options=NetOptions()
            )

    def test_unknown_backend_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="backend"):
            distributed_select(rng.standard_normal(64), 4, 2, backend="mpi")


class TestServeParity:
    def test_fifty_query_session_matches_simulator(self):
        """Acceptance criterion: 50 queries, k=8, identical answers."""
        rng = np.random.default_rng(13)
        points = rng.uniform(0.0, 1.0, (2048, 5))
        queries = rng.uniform(0.0, 1.0, (50, 5))
        jobs = [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]

        net = ClusterSession(points, 8, 8, seed=13, backend="net")
        try:
            net_answers = net.run_batch(jobs)
            net_pickles = net._sim.hot_path_pickle_calls()
        finally:
            net.close()

        ref = ClusterSession(points, 8, 8, seed=13)
        try:
            ref_answers = ref.run_batch(jobs)
        finally:
            ref.close()

        assert len(net_answers) == len(ref_answers) == 50
        for got, want in zip(net_answers, ref_answers):
            assert got.qid == want.qid
            assert np.array_equal(got.ids, want.ids)
            assert np.allclose(got.distances, want.distances)
        assert net_pickles == 0

    def test_session_mutations_over_net(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 1.0, (512, 3))
        session = ClusterSession(points, 4, 4, seed=5, backend="net")
        try:
            session.insert(rng.uniform(0.0, 1.0, (8, 3)))
            job = QueryJob(qid=0, query=rng.uniform(0.0, 1.0, 3))
            (answer,) = session.run_batch([job])
            assert answer.ids.size == 4
        finally:
            session.close()


class TestCrashParity:
    def test_killed_peer_raises_peer_crashed(self):
        sim = NetSimulator(
            3,
            FunctionProgram(echo),
            seed=1,
            faults=FaultPlan(crashes=(Crash(rank=1, round=0),)),
        )
        with pytest.raises(PeerCrashedError) as err:
            sim.run()
        assert 1 in err.value.crashed
        assert sim.crashed_ranks == {1}
        assert (1, 0) in sim.metrics.crashed

    def test_driver_recovery_parity_with_simulator(self):
        """Satellite 3: kill a TCP peer mid-run → same recovery as sim."""
        rng = np.random.default_rng(17)
        points = rng.standard_normal((1024, 4))
        query = rng.standard_normal(4)
        plan = FaultPlan(crashes=(Crash(rank=1, round=5),))
        net = distributed_knn(
            points, query, 6, 4, seed=17, faults=plan, backend="net"
        )
        ref = distributed_knn(points, query, 6, 4, seed=17, faults=plan)
        assert net.recovery is not None and ref.recovery is not None
        assert net.recovery.attempts == ref.recovery.attempts
        assert net.recovery.crashed == ref.recovery.crashed
        assert np.array_equal(net.ids, ref.ids)

    def test_crash_round_sweep_matches_simulator(self):
        """A crash at any round 1..R+1 of an R-round run recovers alike
        on both backends; from round R on it falls after the run."""
        rng = np.random.default_rng(17)
        points = rng.standard_normal((1024, 4))
        query = rng.standard_normal(4)
        rounds = distributed_knn(points, query, 6, 4, seed=17).metrics.rounds
        for crash_round in range(1, rounds + 2):
            plan = FaultPlan(crashes=(Crash(rank=1, round=crash_round),))
            net = distributed_knn(
                points, query, 6, 4, seed=17, faults=plan, backend="net"
            )
            ref = distributed_knn(points, query, 6, 4, seed=17, faults=plan)
            assert net.recovery == ref.recovery, crash_round
            assert np.array_equal(net.ids, ref.ids), crash_round
            assert (ref.recovery.attempts == 1) == (crash_round >= rounds)


class TestPersistent:
    def test_multi_episode_reuses_cluster(self):
        sim = NetSimulator(
            3, FunctionProgram(echo), seed=2, persistent=True
        )
        try:
            first = sim.run()
            port = sim.port
            second = sim.run_episode(FunctionProgram(echo))
            assert first.outputs == second.outputs == [[10, 20], 0, 0]
            assert sim.port == port  # same cluster, not a relaunch
            assert sim.metrics.rounds > first.metrics.rounds or (
                sim.metrics is first.metrics
            )
        finally:
            sim.close()

    def test_close_is_idempotent(self):
        sim = NetSimulator(2, FunctionProgram(echo), seed=0)
        sim.run()
        sim.close()
        sim.close()


class TestCalibration:
    def test_calibrate_yields_positive_constants(self):
        model, detail = calibrate(k=2, rounds=8, payload_bytes=1 << 18, burst=16)
        assert model.alpha_seconds > 0
        assert model.beta_bits_per_second > 0
        assert model.gamma_seconds_per_message >= 0
        assert model.idle_round_seconds == model.alpha_seconds
        assert detail["alpha_rounds"] >= 8

    def test_model_predicts_round_phase_within_3x(self):
        """Acceptance criterion: predicted round cost within 3× of wall."""
        # Calibrate at the same barrier width (k=4) as the measured run
        # so alpha prices the same number of round-control hops.
        model, _ = calibrate(k=4, rounds=20, payload_bytes=1 << 21, burst=32)

        from repro.core.driver import knn_program_for
        from repro.points.dataset import make_dataset
        from repro.points.metrics import get_metric
        from repro.points.partition import shard_dataset

        rng = np.random.default_rng(7)
        dataset = make_dataset(rng.standard_normal((2048 * 4, 8)), rng=rng)
        query = rng.standard_normal(8)
        metric = get_metric("euclidean")
        shards = shard_dataset(dataset, 4, rng, "random", metric=metric, query=query)
        sim = NetSimulator(
            4,
            knn_program_for("sampled", query, 16, metric),
            inputs=shards,
            seed=7,
            observe="profile",
        )
        sim.run()
        predicted = predicted_wall_seconds(model, sim.metrics)
        # The model prices the round barriers, not the episode's program
        # and shard shipping (which sim.wall_seconds also times).
        measured = sim.round_seconds
        assert 0 < measured < sim.wall_seconds
        ratio = predicted / measured
        assert 1 / 3 <= ratio <= 3, (
            f"predicted {predicted:.4f}s vs measured {measured:.4f}s "
            f"(ratio {ratio:.2f}) outside the 3x calibration gate"
        )

    def test_predicted_wall_requires_timeline(self):
        from repro.kmachine.metrics import Metrics
        from repro.kmachine.timing import CostModel

        with pytest.raises(ValueError, match="timeline"):
            predicted_wall_seconds(CostModel(), Metrics())

    def test_cost_profile_consumes_calibrated_model(self):
        """Satellite tie-in: obs.profile takes the measured model as-is."""
        model, _ = calibrate(k=2, rounds=4, payload_bytes=1 << 16, burst=8)
        from repro.obs.profile import CostProfile

        rng = np.random.default_rng(9)
        points = rng.standard_normal((256 * 3, 4))
        query = rng.standard_normal(4)
        result = distributed_knn(
            points, query, 4, 3, seed=9, observe="profile", cost_model=model
        )
        profile = CostProfile(result.metrics, cost_model=model)
        assert profile.consistent  # charged with the same measured model
        assert sum(profile.binding_seconds().values()) > 0
