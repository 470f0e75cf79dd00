"""Approximate serving: routing soundness, certificates, locality moves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.conformance import (
    check_locality_rebalance,
    locality_rebalance_message_budget,
)
from repro.points.generators import gaussian_blobs
from repro.sequential.brute import brute_force_knn_ids
from repro.serve import ClusterSession, KNNService, QueryJob, make_workload

L = 6
K = 4


@pytest.fixture(scope="module")
def blobs() -> np.ndarray:
    rng = np.random.default_rng(31)
    return gaussian_blobs(rng, 1200, 3, n_classes=4, spread=0.04)


@pytest.fixture()
def clustered(blobs) -> ClusterSession:
    session = ClusterSession(blobs, L, K, seed=9, partitioner="locality")
    session.cluster_corpus()
    return session


def _recall(session: ClusterSession, answer, query: np.ndarray) -> float:
    truth = brute_force_knn_ids(session.dataset, query, L, session.metric)
    return len(truth & {int(i) for i in answer.ids}) / L


class TestRoutingTable:
    def test_lower_bounds_are_sound(self, clustered: ClusterSession) -> None:
        """The routing bound never exceeds the true per-machine minimum.

        That inequality is the entire safety argument of both routing
        and certification, so probe it against many random queries.
        """
        rng = np.random.default_rng(0)
        for query in rng.uniform(0.0, 1.0, (25, 3)):
            bounds = clustered.routing.lower_bounds(query)
            for rank, shard in enumerate(clustered._shards):
                if len(shard) == 0:
                    assert np.isinf(bounds[rank])
                    continue
                actual = float(
                    np.min(clustered.metric.distances(shard.points, query))
                )
                assert bounds[rank] <= actual + 1e-9

    def test_block_bounds_equal_single_query_bounds(
        self, clustered: ClusterSession
    ) -> None:
        """A batch's bounds come from one block call; each row must be
        the single-query bound bit for bit, so routing and certificates
        do not depend on how queries were batched."""
        queries = np.random.default_rng(1).uniform(0.0, 1.0, (9, 3))
        block = clustered.routing.lower_bounds(queries)
        assert block.shape == (9, clustered.routing.k)
        for query, row in zip(queries, block):
            assert row.tobytes() == clustered.routing.lower_bounds(query).tobytes()

    def test_route_is_deterministic_and_bounded(
        self, clustered: ClusterSession
    ) -> None:
        bounds = clustered.routing.lower_bounds(np.array([0.5, 0.5, 0.5]))
        a = clustered.routing.route(bounds, 2)
        b = clustered.routing.route(bounds, 2)
        assert np.array_equal(a, b)
        assert len(a) <= 2
        assert np.all(bounds[a] <= np.min(np.delete(bounds, a)))
        with pytest.raises(ValueError):
            clustered.routing.route(bounds, 0)

    def test_counts_partition_the_corpus(
        self, clustered: ClusterSession
    ) -> None:
        assert int(clustered.routing.counts.sum()) == len(clustered.dataset)


class TestApproxBatch:
    def test_requires_cluster_corpus(self, blobs) -> None:
        session = ClusterSession(blobs, L, K, seed=9)
        with pytest.raises(RuntimeError, match="cluster_corpus"):
            session.run_approx_batch([QueryJob(qid=0, query=np.zeros(3))])

    def test_recall_at_default_fanout(self, clustered: ClusterSession) -> None:
        rng = np.random.default_rng(1)
        # Queries drawn near corpus points — the serving regime the
        # approximate mode targets.
        idx = rng.integers(0, len(clustered.dataset), 20)
        queries = clustered.dataset.points[idx] + rng.normal(0, 0.01, (20, 3))
        jobs = [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        answers = clustered.run_approx_batch(jobs, fanout=2)
        recalls = [
            _recall(clustered, a, q) for a, q in zip(answers, queries)
        ]
        assert float(np.mean(recalls)) >= 0.9

    def test_certified_answers_are_exact(
        self, clustered: ClusterSession
    ) -> None:
        rng = np.random.default_rng(2)
        queries = rng.uniform(0.0, 1.0, (15, 3))
        jobs = [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        answers = clustered.run_approx_batch(jobs, fanout=2)
        certified = 0
        for answer, query in zip(answers, queries):
            assert answer.certified is not None
            if answer.certified:
                certified += 1
                assert _recall(clustered, answer, query) == 1.0
        assert certified > 0  # the certificate must actually fire

    def test_full_fanout_is_certified_exact(
        self, clustered: ClusterSession
    ) -> None:
        rng = np.random.default_rng(3)
        queries = rng.uniform(0.0, 1.0, (5, 3))
        jobs = [QueryJob(qid=i, query=q) for i, q in enumerate(queries)]
        answers = clustered.run_approx_batch(jobs, fanout=K)
        for answer, query in zip(answers, queries):
            assert answer.certified is True
            assert _recall(clustered, answer, query) == 1.0

    def test_message_budget_per_query(self, clustered: ClusterSession) -> None:
        rng = np.random.default_rng(4)
        jobs = [
            QueryJob(qid=i, query=q)
            for i, q in enumerate(rng.uniform(0.0, 1.0, (8, 3)))
        ]
        answers = clustered.run_approx_batch(jobs, fanout=2)
        for answer in answers:
            assert answer.messages <= 2  # at most fanout result hops

    def test_exact_path_is_untouched(self, clustered: ClusterSession) -> None:
        rng = np.random.default_rng(5)
        query = rng.uniform(0.0, 1.0, 3)
        (exact,) = clustered.run_batch([QueryJob(qid=0, query=query)])
        assert exact.certified is None
        assert _recall(clustered, exact, query) == 1.0


class TestClusterCorpus:
    def test_rejects_byzantine_sessions(self, blobs) -> None:
        session = ClusterSession(blobs, L, 5, seed=9, byzantine_f=1)
        with pytest.raises(ValueError, match="fault-free"):
            session.cluster_corpus()

    def test_builds_routing_table(self, blobs) -> None:
        session = ClusterSession(blobs, L, K, seed=9)
        assert session.routing is None
        out = session.cluster_corpus(3)
        assert session.routing is not None
        assert session.routing.n_centers == 3
        assert out.centers.shape == (3, 3)


class TestRebalanceLocality:
    def test_requires_routing(self, blobs) -> None:
        session = ClusterSession(blobs, L, K, seed=9)
        with pytest.raises(RuntimeError, match="cluster_corpus"):
            session.rebalance_locality()

    def test_message_budget_and_conformance(self, blobs) -> None:
        # Start from a placement that scatters clusters across machines
        # so the migration actually moves points.
        session = ClusterSession(blobs, L, K, seed=9, partitioner="random")
        session.cluster_corpus()
        before = session.metrics.messages
        record = session.rebalance_locality()
        used = session.metrics.messages - before
        assert used == locality_rebalance_message_budget(K)
        assert check_locality_rebalance(
            used, k=K, moved_points=record.moved_points
        ).passed
        assert record.kind == "rebalance"
        assert record.moved_points > 0

    def test_exactness_survives_migration(self, blobs) -> None:
        session = ClusterSession(blobs, L, K, seed=9, partitioner="random")
        session.cluster_corpus()
        session.rebalance_locality()
        assert sum(session.loads) == len(session.dataset)
        rng = np.random.default_rng(6)
        query = rng.uniform(0.0, 1.0, 3)
        (answer,) = session.run_batch([QueryJob(qid=0, query=query)])
        assert _recall(session, answer, query) == 1.0

    def test_byzantine_falls_back_to_id_space(self, blobs) -> None:
        session = ClusterSession(blobs, L, 5, seed=9, byzantine_f=1)
        record = session.rebalance_locality()  # no routing table needed
        assert record.kind == "rebalance"


class TestServiceFacade:
    def test_approx_service_reports_source_and_recall(self, blobs) -> None:
        service = KNNService(blobs, L, K, seed=17, approx=True)
        workload = make_workload("cluster-drift", 30, 3, seed=7)
        answers = service.replay(workload)
        service.close()
        recalls = []
        for qid, event in enumerate(workload):
            answer = answers[qid]
            assert answer.source == "approx"
            assert answer.certified is not None
            truth = brute_force_knn_ids(
                service.session.dataset, event.query, L, service.session.metric
            )
            recalls.append(len(truth & {int(i) for i in answer.ids}) / L)
        assert float(np.mean(recalls)) >= 0.9
        assert service.stats.to_dict()["by_source"]["approx"] == 30

    def test_default_service_stays_exact(self, blobs) -> None:
        service = KNNService(blobs, L, K, seed=17)
        workload = make_workload("cluster-drift", 10, 3, seed=7)
        answers = service.replay(workload)
        service.close()
        for qid, event in enumerate(workload):
            answer = answers[qid]
            assert answer.certified is None
            assert answer.source in ("cold", "warm", "cache")
            truth = brute_force_knn_ids(
                service.session.dataset, event.query, L, service.session.metric
            )
            assert {int(i) for i in answer.ids} == truth

    def test_invalid_fanout_rejected(self, blobs) -> None:
        with pytest.raises(ValueError):
            KNNService(blobs, L, K, seed=17, approx=True, approx_fanout=0)
