"""NET — TCP backend: parity, zero-pickle hot path, calibrated model fit.

The asyncio-TCP runtime's contract, benchmarked end to end on
localhost:

* **Parity**: ``distributed_knn(..., backend="net")`` returns answers
  identical to the in-process simulator for the same seed.
* **Zero-pickle hot path**: per-round traffic travels through the
  strict binary codec only; ``hot_path_pickle_calls()`` stays 0.
* **Model fit**: α–β–γ constants *measured* by
  :func:`repro.runtime.calibrate.calibrate` predict the round-phase
  wall of a real KNN run within 3× (the PR's acceptance gate) —
  evidence the cost model prices real transports, not just the
  simulator's bookkeeping.

The result lands in ``benchmarks/results/BENCH_net.json``; the
deterministic protocol totals and the model-fit ratio recorded there
are the committed baselines ``benchmarks/regress.py`` gates future PRs
against.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.driver import distributed_knn, knn_program_for
from repro.points.dataset import make_dataset
from repro.points.metrics import get_metric
from repro.points.partition import shard_dataset
from repro.runtime import codec
from repro.runtime.calibrate import calibrate, predicted_wall_seconds
from repro.runtime.net import NetSimulator

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_net.json"

K = 4
L = 16
DIM = 8
N = K * 2048
SEED = 7
CAL_ROUNDS = 20
REPS = 3  # wall-clock reps; protocol totals are deterministic


def _direct_knn_run():
    """One profiled (timeline-bearing) KNN run on a raw NetSimulator."""
    rng = np.random.default_rng(SEED)
    dataset = make_dataset(rng.standard_normal((N, DIM)), rng=rng)
    query = rng.standard_normal(DIM)
    metric = get_metric("euclidean")
    shards = shard_dataset(dataset, K, rng, "random", metric=metric, query=query)
    program = knn_program_for("sampled", query, L, metric)
    sim = NetSimulator(K, program, inputs=shards, seed=SEED, observe="profile")
    sim.run()
    return sim


def test_net_backend(results_dir):
    # -- calibration: measure this host's transport constants ---------
    model, cal_detail = calibrate(
        k=K, rounds=CAL_ROUNDS, payload_bytes=1 << 21, burst=32, seed=0
    )
    assert model.alpha_seconds > 0
    assert model.beta_bits_per_second > 0

    # -- model fit: best-of-REPS round-phase wall vs prediction -------
    walls = []
    sim = None
    for _ in range(REPS):
        sim = _direct_knn_run()
        # The round barriers only: program and shard shipping at the
        # episode's start is not a transport cost the model prices.
        walls.append(sim.round_seconds)
    assert sim is not None
    predicted = predicted_wall_seconds(model, sim.metrics)
    measured = min(walls)  # min over reps strips scheduler noise
    model_ratio = predicted / measured

    # -- driver parity + zero-pickle hot path -------------------------
    rng = np.random.default_rng(SEED)
    points = rng.standard_normal((N, DIM))
    query = rng.standard_normal(DIM)
    codec.reset_pickle_fallbacks()
    net = distributed_knn(points, query, L, K, seed=SEED, backend="net")
    total_fallbacks = codec.pickle_fallbacks()
    ref = distributed_knn(points, query, L, K, seed=SEED)
    answers_match = bool(
        np.array_equal(net.ids, ref.ids)
        and np.allclose(net.distances, ref.distances)
    )

    entry = {
        "bench": "net_backend",
        "workload": {
            "k": K, "l": L, "n": N, "dim": DIM, "seed": SEED, "reps": REPS,
        },
        "calibration": {
            "alpha_seconds": round(model.alpha_seconds, 6),
            "beta_bits_per_second": round(model.beta_bits_per_second, 1),
            "gamma_seconds_per_message": round(
                model.gamma_seconds_per_message, 9
            ),
            "probe_rounds": cal_detail["probe_rounds"],
            "payload_bytes": cal_detail["payload_bytes"],
            "burst": cal_detail["burst"],
        },
        "knn": {
            "rounds": sim.metrics.rounds,
            "messages": sim.metrics.messages,
            "bits": sim.metrics.bits,
            "round_seconds_best": round(measured, 4),
            "wall_seconds": round(sim.wall_seconds, 4),
            "predicted_seconds": round(predicted, 4),
        },
        "model_ratio": round(model_ratio, 4),
        "answers_match": answers_match,
        "driver_rounds": net.metrics.rounds,
        # Off-plane frames (JOB/RESULT) may pickle; per-round frames may
        # not.  The driver path shards via JOB, so total > 0 is fine —
        # the *hot-path* count is pinned to zero by the tests and the
        # tolerance below keeps the off-plane bill bounded.
        "pickle_fallbacks_total": total_fallbacks,
        "python": sys.version.split()[0],
    }
    RESULT_PATH.write_text(json.dumps(entry, indent=2) + "\n")
    print(f"\n[report saved to {RESULT_PATH}]\n{json.dumps(entry, indent=2)}")

    # Acceptance gates (mirrored in regress_tolerances.json):
    assert answers_match, entry
    assert 1 / 3 <= model_ratio <= 3.0, entry
