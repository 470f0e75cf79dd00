"""Tests for the election and accuracy experiments + their CLI paths."""

from __future__ import annotations

import pytest

from repro.experiments import (
    AccuracyConfig,
    ElectionConfig,
    run_accuracy,
    run_election,
)
from repro.experiments.runner import main


class TestElectionExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_election(ElectionConfig(k_values=(4, 32), repetitions=4))

    def test_all_cells_present(self, sweep):
        assert {(c.method, c.k) for c in sweep.cells} == {
            ("min_id", 4), ("min_id", 32), ("sublinear", 4), ("sublinear", 32)
        }

    def test_agreement_everywhere(self, sweep):
        for cell in sweep.cells:
            assert cell.agreements == cell.trials

    def test_min_id_message_formula(self, sweep):
        assert sweep.cell("min_id", 32).messages.mean == 32 * 31

    def test_report_and_lookup(self, sweep):
        assert "Leader election" in sweep.report()
        with pytest.raises(KeyError):
            sweep.cell("raft", 4)

    def test_csv(self, sweep):
        assert sweep.csv().startswith("method,k")


class TestAccuracyExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_accuracy(AccuracyConfig(k_values=(2, 4), n_train=400, n_test=12))

    def test_predictions_match_sequential(self, sweep):
        for cell in sweep.cells:
            assert cell.matches_sequential == cell.n_test

    def test_accuracy_identical_across_k(self, sweep):
        accs = {c.accuracy for c in sweep.cells}
        assert len(accs) == 1

    def test_accuracy_high_on_tight_blobs(self, sweep):
        assert all(c.accuracy > 0.8 for c in sweep.cells)

    def test_report(self, sweep):
        assert "quality" in sweep.report()


class TestRunnerSubcommands:
    def test_election_cli(self, capsys):
        assert main(["election", "--k", "4", "--reps", "2"]) == 0
        assert "Leader election" in capsys.readouterr().out

    def test_accuracy_cli(self, capsys):
        # Uses defaults scaled by nothing; keep it small via --k and --l.
        assert main(["accuracy", "--k", "2", "--l", "3"]) == 0
        assert "quality" in capsys.readouterr().out


class TestElectionSpans:
    def test_span_rounds_summarised(self):
        cfg = ElectionConfig(
            methods=("min_id",), k_values=(4,), repetitions=3, observe="spans"
        )
        cell = run_election(cfg).cell("min_id", 4)
        assert cell.span_rounds is not None
        # Election is the only phase, so the span's round delta tracks
        # the whole-run round metric.
        assert cell.span_rounds.mean <= cell.rounds.mean

    def test_spans_off_keeps_cell_field_none(self):
        cfg = ElectionConfig(methods=("min_id",), k_values=(4,), repetitions=2)
        assert run_election(cfg).cell("min_id", 4).span_rounds is None
