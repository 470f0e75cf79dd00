"""FIG2 — regenerate the paper's Figure 2 (speedup ratio grid).

Paper: for k = 2..128 machines on uniform random data, the ratio
(simple-method wall time) / (Algorithm 2 wall time) plotted against ℓ
grows with ℓ and with k, reaching ≈80× at 128 cores.

Here: the same grid on the simulator's measured-compute + α–β–γ cost
model (DESIGN.md documents the substitution).  The assertions pin the
*shape* — the ratio rises with ℓ, Algorithm 2 wins at the large-(k, ℓ)
corner, and in its exact regime (ℓ ≤ 12⌈log₂ℓ⌉, where it certifies a
bound and ships at most ℓ keys per link) it costs no more rounds than
the simple method — not the paper's absolute 80×, which is
testbed-specific.  The full table + ASCII chart land in
``benchmarks/results/figure2.txt``.

Paper scale (2^22 points/machine) is reachable with the CLI:
``repro-knn figure2 --points-per-machine 4194304``.
"""

from __future__ import annotations

import pytest

from repro.experiments import Figure2Config, run_figure2, run_figure2_multiprocess

GRID = Figure2Config(
    k_values=(2, 8, 32, 128),
    l_values=(16, 64, 256, 1024),
    points_per_machine=2**14,
    repetitions=3,
    seed=2020,
)


@pytest.fixture(scope="module")
def figure2():
    return run_figure2(GRID)


def test_figure2_grid(benchmark, save_report):
    """Time one representative cell; regenerate and persist the grid."""
    cell_cfg = Figure2Config(
        k_values=(8,), l_values=(256,), points_per_machine=2**14, repetitions=1
    )
    benchmark.pedantic(lambda: run_figure2(cell_cfg), rounds=3, iterations=1)
    result = run_figure2(GRID)
    save_report("figure2", result.report() + "\n\n" + result.csv())

    by_cell = {(c.k, c.l): c.ratio.mean for c in result.cells}
    # Shape 1: over the sampled regime (l > 12 log2 l) the ratio
    # increases with l at every k.  Below it Algorithm 2 runs its exact
    # certificate-and-cut protocol, which is no longer the slow end of
    # the curve.
    for k in GRID.k_values:
        assert by_cell[(k, 1024)] > by_cell[(k, 256)], f"no l-growth at k={k}"
    # Shape 2: Algorithm 2 wins the large corner...
    assert by_cell[(128, 1024)] > 1.5
    # ...and in its exact regime (l <= 12 log2 l) costs no more rounds
    # than the simple method at any k.
    for k in GRID.k_values:
        for l in (16, 64):
            cell = next(c for c in result.cells if (c.k, c.l) == (k, l))
            assert cell.sampled_rounds <= cell.simple_rounds, (k, l)
    # Shape 3: at the largest l, more machines never shrink the gap
    # below its small-k level by much (k-robustness of the win).
    assert by_cell[(128, 1024)] > 0.8 * by_cell[(2, 1024)]


def test_figure2_multiprocess_crosscheck(save_report):
    """Real OS-process parallelism agrees on who wins at large ℓ."""
    rows = run_figure2_multiprocess(
        k=4, l_values=(64, 2048), points_per_machine=2**14, repetitions=3, seed=7
    )
    lines = [
        f"k={r['k']} l={r['l']}: simple {r['simple_wall_s']:.4f}s "
        f"alg2 {r['sampled_wall_s']:.4f}s ratio {r['ratio']:.2f}"
        for r in rows
    ]
    save_report("figure2_multiprocess", "\n".join(lines))
    big = next(r for r in rows if r["l"] == 2048)
    # With real pipes the baseline ships 4*2048 pairs through the
    # leader; Algorithm 2 ships ~4*12*11 samples. Expect a real win.
    assert big["ratio"] > 1.0
