"""OBS — observability overhead: free when off, cheap when on.

Instrumented protocols run their ``with ctx.obs.span(...)`` blocks on
every run, so the disabled path (the shared ``NULL_OBS`` no-op) has to
be invisible next to real protocol work.  This bench measures

* the *per-entry* cost of a null span and a null event, scaled by how
  many of each a seeded Algorithm 2 run actually executes, as a
  fraction of that run's wall time (the acceptance bar: **< 2%**); and
* the *enabled* cost — the same run at ``observe="trace"``, which
  records everything — as a wall-time ratio against baseline.

The result lands in ``benchmarks/results/BENCH_obs.json`` so future
PRs can watch both numbers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.driver import distributed_knn
from repro.kmachine.machine import NULL_OBS
from repro.obs import check_knn_result, phase_attribution

RESULT_PATH = Path(__file__).parent / "results" / "BENCH_obs.json"

K = 8
L = 64
N = K * 512
SEED = 7
REPS = 5


def _dataset():
    rng = np.random.default_rng(SEED)
    return rng.uniform(0.0, 1.0, (N, 4))


def _run(points, **obs_kwargs):
    start = time.perf_counter()
    result = distributed_knn(
        points, query=points[0], l=L, k=K, seed=SEED, **obs_kwargs
    )
    return result, time.perf_counter() - start


def _null_span_cost(entries: int = 200_000) -> float:
    """Best-of-3 per-entry seconds for ``with NULL_OBS.span(...): pass``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(entries):
            with NULL_OBS.span("x"):
                pass
        best = min(best, (time.perf_counter() - start) / entries)
    return best


def test_observability_overhead(results_dir):
    points = _dataset()

    # One instrumented run tells us how many spans/rounds a real run
    # executes — and doubles as the correctness anchor for the bench.
    instrumented, _ = _run(points, observe="trace")
    span_entries = len(instrumented.raw.spans)
    assert span_entries > 0
    attribution = phase_attribution(
        instrumented.raw.spans, instrumented.metrics.messages
    )
    assert attribution.coverage >= 0.95
    assert check_knn_result(instrumented, l=L, k=K).passed

    baseline_times = [_run(points)[1] for _ in range(REPS)]
    enabled_times = [
        _run(points, observe="trace")[1]
        for _ in range(REPS)
    ]
    baseline = min(baseline_times)
    enabled = min(enabled_times)

    per_entry = _null_span_cost()
    disabled_overhead = span_entries * per_entry / baseline

    entry = {
        "bench": "observability_overhead",
        "workload": {"k": K, "l": L, "n": N, "seed": SEED, "reps": REPS},
        "span_entries_per_run": span_entries,
        "null_span_ns_per_entry": round(per_entry * 1e9, 1),
        "baseline_best_seconds": round(baseline, 4),
        "enabled_best_seconds": round(enabled, 4),
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "enabled_slowdown_ratio": round(enabled / baseline, 3),
        "attribution_coverage": round(attribution.coverage, 4),
        "python": sys.version.split()[0],
    }
    RESULT_PATH.write_text(json.dumps(entry, indent=2) + "\n")
    print(f"\n[report saved to {RESULT_PATH}]\n{json.dumps(entry, indent=2)}")

    # The acceptance bar: instrumentation that is off costs < 2% of a
    # real run even if every span entry were pure overhead.
    assert disabled_overhead < 0.02, entry
    # Fully-on observability must stay usable for any debugging run
    # (loose bound: timing noise on shared CI boxes is real).
    assert enabled / baseline < 3.0, entry
