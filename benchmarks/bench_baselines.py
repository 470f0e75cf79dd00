"""CMP — §1.3/§1.4: all protocols on the same queries.

Regenerates the paper's comparison claims as one table: the paper's
Algorithm 2 (``sampled``), the pre-sampling O(log ℓ + log k) variant
(``unpruned``), the practical baseline (``simple``, Θ(ℓ) rounds),
Saukas–Song [16] (deterministic, O(log(kℓ)) iterations) and binary
search on distances [3, 18] (rounds follow the value range, not n).
Report: ``benchmarks/results/baselines.txt``.
"""

from __future__ import annotations

import pytest

from repro.experiments import ComparisonConfig, run_comparison

CFG = ComparisonConfig(
    k_values=(8, 32),
    l_values=(16, 128, 1024),
    points_per_machine=2**12,
    repetitions=3,
    seed=30,
)


@pytest.fixture(scope="module")
def grid():
    return run_comparison(CFG)


def test_comparison_grid(benchmark, grid, save_report):
    single = ComparisonConfig(k_values=(8,), l_values=(128,),
                              points_per_machine=2**10, repetitions=1)
    benchmark.pedantic(lambda: run_comparison(single), rounds=3, iterations=1)
    save_report("baselines", grid.report() + "\n\n" + grid.csv())

    # Every deterministic protocol answered every query exactly.
    for cell in grid.cells:
        assert cell.correct == cell.trials, (cell.algorithm, cell.k, cell.l)


def test_algorithm2_beats_simple_on_rounds_at_large_l(grid):
    for k in CFG.k_values:
        assert grid.mean_rounds("sampled", k, 1024) < grid.mean_rounds(
            "simple", k, 1024
        )


def test_tiny_l_crossover(grid):
    """At l=16 the simple method's few-round gather beats every iterative
    protocol, and Algorithm 2 — in its exact regime (l <= 12 log2 l),
    where it certifies a bound and ships at most l keys per link — costs
    no more rounds than the simple method."""
    for k in CFG.k_values:
        simple = grid.mean_rounds("simple", k, 16)
        assert grid.mean_rounds("sampled", k, 16) <= simple
        for algo in ("unpruned", "saukas_song", "binary_search"):
            assert simple < grid.mean_rounds(algo, k, 16)


def test_simple_messages_are_theta_kl(grid):
    """Message budget: simple ≈ kl, sampled ≈ k log l."""
    for k in CFG.k_values:
        simple = next(
            c for c in grid.cells if (c.algorithm, c.k, c.l) == ("simple", k, 1024)
        )
        sampled = next(
            c for c in grid.cells if (c.algorithm, c.k, c.l) == ("sampled", k, 1024)
        )
        assert simple.messages.mean > 0.8 * (k - 1) * 1024
        assert sampled.messages.mean < simple.messages.mean / 3


def test_unpruned_fewer_messages_more_or_equal_rounds_than_sampled(grid):
    """Sampling trades O(k log l) extra sample messages for a smaller
    selection instance; without it the selection runs on k*l keys."""
    for k in CFG.k_values:
        sampled = next(
            c for c in grid.cells if (c.algorithm, c.k, c.l) == ("sampled", k, 1024)
        )
        unpruned = next(
            c for c in grid.cells if (c.algorithm, c.k, c.l) == ("unpruned", k, 1024)
        )
        assert unpruned.messages.mean < sampled.messages.mean
