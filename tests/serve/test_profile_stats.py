"""Profiled serving sessions surface leader-ingest and critical-path
fields in ``KNNService.stats_report``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import KNNService, make_workload

L = 8
K = 4


@pytest.fixture(scope="module")
def corpus() -> np.ndarray:
    return np.random.default_rng(11).uniform(0.0, 1.0, (1200, 3))


def _serve(corpus: np.ndarray, **kwargs) -> dict:
    service = KNNService(corpus, L, K, seed=3, **kwargs)
    service.replay(make_workload("uniform", 12, 3, seed=5))
    service.close()
    report = service.stats_report()
    json.dumps(report)  # must stay JSON-ready
    return report


def test_default_service_reports_no_profile_fields(corpus):
    report = _serve(corpus)
    assert "leader_ingest" not in report
    assert "critical_path" not in report


def test_profiled_service_reports_leader_ingest(corpus):
    report = _serve(corpus, observe="profile")
    ingest = report["leader_ingest"]
    assert ingest["machine"] is not None
    assert ingest["messages"] >= 1
    assert 0.0 < ingest["share"] <= 1.0
    # The ingress map accounts for every received message, and the hot
    # machine's count is its maximum.
    ingress = {int(r): n for r, n in ingest["ingress"].items()}
    assert ingress[ingest["machine"]] == ingest["messages"]
    assert max(ingress.values()) == ingest["messages"]


def test_profiled_service_reports_critical_path(corpus):
    report = _serve(corpus, observe="profile")
    segments = report["critical_path"]
    assert segments, "a served batch must produce traffic rounds"
    for seg in segments:
        assert seg["binding"] in ("alpha", "beta", "gamma")
        assert seg["end_round"] >= seg["start_round"]
        assert seg["rounds"] == seg["end_round"] - seg["start_round"] + 1
    # top_segments orders busiest-first.
    seconds = [seg["seconds"] for seg in segments]
    assert seconds == sorted(seconds, reverse=True)
