"""Tests for the experiment harness (small configs, full code paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import distributed_knn
from repro.experiments import (
    AblationConfig,
    ComparisonConfig,
    Figure2Config,
    KNNRoundsConfig,
    PivotConfig,
    SamplingConfig,
    SelectionRoundsConfig,
    run_ablation,
    run_comparison,
    run_figure2,
    run_knn_rounds,
    run_pivot_uniformity,
    run_sampling,
    run_selection_rounds,
)
from repro.obs.conformance import knn_message_budget


@pytest.fixture(scope="module")
def figure2_result():
    return run_figure2(
        Figure2Config(
            k_values=(2, 4), l_values=(8, 64), points_per_machine=256, repetitions=2
        )
    )


class TestFigure2:
    def test_grid_complete(self, figure2_result):
        assert len(figure2_result.cells) == 4
        assert {(c.k, c.l) for c in figure2_result.cells} == {
            (2, 8), (2, 64), (4, 8), (4, 64)
        }

    def test_times_positive(self, figure2_result):
        for cell in figure2_result.cells:
            assert cell.simple_seconds.mean > 0
            assert cell.sampled_seconds.mean > 0
            assert cell.ratio.mean > 0

    def test_series_shape(self, figure2_result):
        series = figure2_result.series()
        assert set(series) == {"k=2", "k=4"}
        assert [x for x, _ in series["k=2"]] == [8, 64]

    def test_report_renders(self, figure2_result):
        text = figure2_result.report()
        assert "Figure 2" in text and "legend" in text

    def test_csv_has_header_and_rows(self, figure2_result):
        lines = figure2_result.csv().splitlines()
        assert lines[0].startswith("k,l,ratio")
        assert len(lines) == 5

    def test_max_ratio(self, figure2_result):
        assert figure2_result.max_ratio() == max(
            c.ratio.mean for c in figure2_result.cells
        )

    def test_deterministic_given_seed(self):
        cfg = Figure2Config(k_values=(2,), l_values=(8,), points_per_machine=128,
                            repetitions=2, seed=5)
        a = run_figure2(cfg)
        b = run_figure2(cfg)
        assert a.cells[0].simple_rounds == b.cells[0].simple_rounds
        assert a.cells[0].simple_messages == b.cells[0].simple_messages


class TestRoundsExperiments:
    def test_selection_rounds_fit_is_logarithmic(self):
        res = run_selection_rounds(
            SelectionRoundsConfig(
                n_values=(2**8, 2**11, 2**14), k_values=(4,), repetitions=8
            )
        )
        fit = res.fit_for_k(4)
        assert fit.b > 0  # median selection grows with log n
        # Sub-linear sanity: 64x more data, far less than 64x rounds.
        assert res.cells[-1].rounds.mean < 8 * res.cells[0].rounds.mean

    def test_selection_rounds_k_rows_present(self):
        res = run_selection_rounds(
            SelectionRoundsConfig(n_values=(256,), k_values=(2, 8), repetitions=2)
        )
        assert {c.k for c in res.cells} == {2, 8}

    def test_knn_rounds_independent_of_k(self):
        res = run_knn_rounds(
            KNNRoundsConfig(
                l_values=(16, 64), k_values=(4, 16), points_per_machine=256,
                repetitions=3
            )
        )
        assert res.k_independence() < 0.6  # loose: small samples

    def test_knn_messages_scale_with_k(self):
        res = run_knn_rounds(
            KNNRoundsConfig(l_values=(64,), k_values=(4, 16), points_per_machine=256,
                            repetitions=2)
        )
        m4 = next(c.messages.mean for c in res.cells if c.k == 4)
        m16 = next(c.messages.mean for c in res.cells if c.k == 16)
        assert m16 > m4
        # Theorem 2.4: O(k log l) messages.  Each control step of the
        # exact regime costs one message per worker; the shipped keys
        # are bounded by the certificate, not by k.
        for k, messages in ((4, m4), (16, m16)):
            assert messages <= knn_message_budget(64, k, safe_mode=False)
            rng = np.random.default_rng(k)
            run = distributed_knn(
                rng.uniform(0, 2**32, 256 * k), float(rng.uniform(0, 2**32)),
                l=64, k=k, seed=k, safe_mode=False,
            )
            per_tag = run.metrics.per_tag_messages
            for step in ("cert", "tau", "n", "done"):
                assert per_tag[f"knn/{step}"] == k - 1

    def test_report_and_csv(self):
        res = run_selection_rounds(
            SelectionRoundsConfig(n_values=(256, 512), k_values=(2,), repetitions=2)
        )
        assert "rounds fit" in res.report("t")
        assert res.csv().splitlines()[0].startswith("k,n")


class TestSamplingExperiment:
    def test_survivors_recorded_and_bounded(self):
        res = run_sampling(
            SamplingConfig(k_values=(8,), l_values=(64,), points_per_machine=128,
                           repetitions=10)
        )
        [cell] = res.cells
        assert cell.trials == 10
        assert cell.survivors.mean >= 64          # enough survived
        assert cell.max_survivors_over_l <= 11    # Lemma 2.3 bound holds
        assert cell.failure_rate <= 0.2

    def test_skips_l_above_points_per_machine(self):
        res = run_sampling(
            SamplingConfig(k_values=(4,), l_values=(64, 100000),
                           points_per_machine=128, repetitions=2)
        )
        assert len(res.cells) == 1

    def test_report_and_worst_ratio(self):
        res = run_sampling(
            SamplingConfig(k_values=(4,), l_values=(64,), points_per_machine=128,
                           repetitions=3)
        )
        assert "Lemma 2.3" in res.report()
        assert res.worst_ratio() > 0


class TestPivotExperiment:
    def test_uniformity_not_rejected_on_sorted_adversary(self):
        res = run_pivot_uniformity(
            PivotConfig(n=256, k=8, l=32, runs=400, bins=8, seed=3)
        )
        assert res.pvalue > 0.001
        assert res.ranks.min() >= 0 and res.ranks.max() < 256

    def test_machine_frequencies_proportional(self):
        res = run_pivot_uniformity(
            PivotConfig(n=256, k=4, l=32, runs=400, seed=4, partitioner="skewed")
        )
        # Expected counts follow n_i/s; allow generous sampling noise.
        err = np.abs(res.machine_observed - res.machine_expected)
        assert (err <= 5 * np.sqrt(res.machine_expected + 1) + 5).all()

    def test_report(self):
        res = run_pivot_uniformity(PivotConfig(n=128, k=4, l=16, runs=50, bins=4))
        assert "chi2" in res.report()


class TestComparisonExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_comparison(
            ComparisonConfig(k_values=(4,), l_values=(8, 256),
                             points_per_machine=512, repetitions=2)
        )

    def test_all_algorithms_all_cells(self, result):
        assert len(result.cells) == 10  # 5 algorithms x 2 l-values

    def test_everything_correct(self, result):
        for cell in result.cells:
            if cell.algorithm == "sampled":
                continue  # Monte Carlo: failures allowed (none expected though)
            assert cell.correct == cell.trials, cell.algorithm

    def test_simple_loses_at_large_l(self, result):
        assert result.mean_rounds("sampled", 4, 256) < result.mean_rounds(
            "simple", 4, 256
        )

    def test_sampled_no_dearer_than_simple_at_small_l(self, result):
        # l = 8 is in Algorithm 2's exact regime: its exact cut costs
        # no more rounds than the simple method's full ship.
        assert result.mean_rounds("sampled", 4, 8) <= result.mean_rounds(
            "simple", 4, 8
        )

    def test_report_lists_all(self, result):
        text = result.report()
        for algo in ("sampled", "unpruned", "simple", "saukas_song", "binary_search"):
            assert algo in text


class TestAblationExperiment:
    def test_arms_and_reference(self):
        res = run_ablation(
            AblationConfig(pairs=((1, 1), (12, 21)), k=4, l=128,
                           points_per_machine=256, repetitions=8)
        )
        assert len(res.arms) == 2
        aggressive = res.arm_for(1, 1)
        paper = res.arm_for(12, 21)
        assert aggressive.fallback_rate >= paper.fallback_rate
        assert paper.fallback_rate == 0.0
        assert res.unpruned_rounds is not None
        assert "Ablation" in res.report()

    def test_lookup_missing_arm(self):
        res = run_ablation(
            AblationConfig(pairs=((12, 21),), k=2, l=16, points_per_machine=64,
                           repetitions=2)
        )
        with pytest.raises(KeyError):
            res.arm_for(99, 99)
