"""Batch ℓ-NN: many queries answered by one resident cluster.

The batch program is :class:`repro.serve.session.ServeBatchProgram`,
run through :meth:`repro.serve.session.ClusterSession.run_batch`: one
election per session, one ``bq/<qid>`` tag namespace per query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.points.dataset import make_dataset
from repro.sequential.brute import brute_force_knn_ids
from repro.serve.session import ClusterSession, QueryJob, ServeBatchProgram


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(8)
    return make_dataset(rng.uniform(0, 1, (2000, 3)), seed=8)


def _jobs(queries) -> list[QueryJob]:
    return [QueryJob(qid=i, query=np.atleast_1d(q)) for i, q in enumerate(queries)]


class TestBatchCorrectness:
    def test_every_answer_exact(self, corpus):
        rng = np.random.default_rng(1)
        queries = rng.uniform(0, 1, (6, 3))
        answers = ClusterSession(corpus, 11, 8, seed=2).run_batch(_jobs(queries))
        assert len(answers) == 6
        for q, ans in zip(queries, answers):
            assert set(int(i) for i in ans.ids) == brute_force_knn_ids(corpus, q, 11)
            assert (np.diff(ans.distances) >= 0).all()

    def test_labels_carried(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (300, 2))
        labels = rng.integers(0, 3, 300)
        session = ClusterSession(pts, 5, 4, labels=labels, seed=3)
        for ans in session.run_batch(_jobs(rng.uniform(0, 1, (2, 2)))):
            assert ans.labels is not None and len(ans.labels) == 5

    def test_1d_corpus_and_queries(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, 500)
        session = ClusterSession(values, 4, 4, seed=4)
        queries = [10.0, 90.0]
        answers = session.run_batch(_jobs(queries))
        assert len(answers) == 2
        for q, ans in zip(queries, answers):
            assert set(int(i) for i in ans.ids) == brute_force_knn_ids(
                session.dataset, np.array([q]), 4
            )

    def test_single_query_2d(self, corpus):
        q = np.array([0.5, 0.5, 0.5])
        (answer,) = ClusterSession(corpus, 3, 4, seed=5).run_batch(_jobs([q]))
        assert set(int(i) for i in answer.ids) == brute_force_knn_ids(corpus, q, 3)

    def test_validations(self, corpus):
        with pytest.raises(ValueError):
            ClusterSession(corpus, 0, 2)
        with pytest.raises(ValueError):
            ClusterSession(corpus, 3, 1)
        with pytest.raises(ValueError):
            ServeBatchProgram([], 3, None, 0)


class TestBatchAmortization:
    def test_per_query_message_attribution(self, corpus):
        rng = np.random.default_rng(6)
        session = ClusterSession(corpus, 9, 8, seed=7)
        before = session.metrics.messages
        answers = session.run_batch(_jobs(rng.uniform(0, 1, (4, 3))))
        assert len(answers) == 4
        assert all(a.messages > 0 for a in answers)
        # Every message of a batch episode runs under a query's tags.
        assert sum(a.messages for a in answers) == session.metrics.messages - before

    def test_amortized_metrics_properties(self, corpus):
        rng = np.random.default_rng(7)
        session = ClusterSession(corpus, 9, 8, seed=8)
        answers = session.run_batch(_jobs(rng.uniform(0, 1, (5, 3))))
        assert max(a.complete_round for a in answers) <= session.rounds
        assert min(a.complete_round for a in answers) > session.setup_rounds

    def test_batch_amortizes_election(self, corpus):
        """The election is paid once per session, not once per query."""
        rng = np.random.default_rng(9)
        k = 8
        session = ClusterSession(corpus, 7, k, seed=10, election="min_id")
        for first in (0, 5):
            queries = rng.uniform(0, 1, (5, 3))
            session.run_batch(
                [QueryJob(qid=first + i, query=q) for i, q in enumerate(queries)]
            )
        election_msgs = sum(
            count
            for msg_tag, count in session.metrics.per_tag_messages.items()
            if msg_tag.startswith("elect")
        )
        assert election_msgs == k * (k - 1)  # once, not once per query
