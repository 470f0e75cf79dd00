"""End-to-end tests for the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.kmachine.metrics import Metrics
from repro.obs.cli import main
from repro.obs.export import read_jsonl, write_jsonl


@pytest.fixture(scope="module")
def demo_log(tmp_path_factory):
    """One small seeded demo run shared by the read-only subcommands."""
    root = tmp_path_factory.mktemp("obs-cli")
    jsonl = root / "run.jsonl"
    chrome = root / "run.json"
    code = main(
        [
            "demo", "--k", "4", "--l", "16", "--points-per-machine", "64",
            "--dim", "2", "--seed", "7",
            "--jsonl", str(jsonl), "--chrome", str(chrome),
        ]
    )
    assert code == 0
    return jsonl, chrome


class TestDemo:
    def test_reports_attribution_and_conformance(self, demo_log, capsys):
        jsonl, chrome = demo_log
        assert jsonl.exists() and chrome.exists()

    def test_demo_output_sections(self, capsys):
        code = main(
            ["demo", "--k", "4", "--l", "16", "--points-per-machine", "64",
             "--dim", "2", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "distributed_knn: k=4 l=16" in out
        assert "phase attribution:" in out
        assert "conformance[algorithm2]" in out
        assert "PASS" in out


class TestInfo:
    def test_info_summarises_log(self, demo_log, capsys):
        jsonl, _ = demo_log
        assert main(["info", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "meta:" in out
        assert "events:" in out and "spans:" in out
        assert "event kinds:" in out
        assert "metrics: rounds=" in out


class TestSpans:
    def test_spans_prints_trees_and_attribution(self, demo_log, capsys):
        jsonl, _ = demo_log
        assert main(["spans", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "machine 0:" in out
        assert "sampling" in out
        assert "phase attribution:" in out
        assert "covered" in out

    def test_spans_fails_on_spanless_log(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "bare.jsonl", metrics=Metrics(rounds=1))
        assert main(["spans", str(path)]) == 1


class TestConvert:
    def test_convert_writes_loadable_chrome_json(self, demo_log, tmp_path, capsys):
        jsonl, direct_chrome = demo_log
        out_path = tmp_path / "converted.json"
        assert main(["convert", str(jsonl), str(out_path)]) == 0
        converted = json.loads(out_path.read_text())
        assert "traceEvents" in converted
        phases = {e.get("ph") for e in converted["traceEvents"]}
        assert {"M", "X"} <= phases
        # The converted doc carries the same span slices as the direct export.
        direct = json.loads(direct_chrome.read_text())

        def slices(doc):
            return sorted(
                (e["name"], e["ts"], e["dur"], e["tid"])
                for e in doc["traceEvents"]
                if e["ph"] == "X"
            )

        assert slices(converted) == slices(direct)


class TestArgs:
    def test_command_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def _cumulative(doc):
    return [
        (e["ts"], e["args"]["messages"], e["args"]["bits"])
        for e in doc["traceEvents"]
        if e.get("ph") == "C" and e.get("name") == "cumulative"
    ]


class TestHistoryExport:
    def test_demo_jsonl_carries_history_and_convert_emits_counters(
        self, demo_log, tmp_path
    ):
        """The demo log's timeline is its history: ``convert`` derives the
        cumulative counter track from it, identical to the direct export."""
        jsonl, chrome = demo_log
        _, _, _, metrics = read_jsonl(jsonl)
        assert metrics is not None and metrics.timeline

        out_path = tmp_path / "with_history.json"
        assert main(["convert", str(jsonl), str(out_path)]) == 0
        track = _cumulative(json.loads(out_path.read_text()))
        assert len(track) == len(metrics.timeline)
        messages = [m for _, m, _ in track]
        assert messages == sorted(messages)  # cumulative, monotone
        assert track[-1][1:] == (metrics.messages, metrics.bits)
        assert track == _cumulative(json.loads(chrome.read_text()))

    def test_history_absent_reads_as_empty(self, tmp_path):
        """A log without a timeline converts to no cumulative track, and an
        older log's ``history`` line is skipped on load."""
        path = write_jsonl(tmp_path / "bare.jsonl", metrics=Metrics(rounds=1))
        with path.open("a") as fh:
            fh.write(json.dumps({"type": "history", "samples": [[0, 1, 8]]}) + "\n")
        assert read_jsonl(path)[3] == Metrics(rounds=1)
        out_path = tmp_path / "bare.json"
        assert main(["convert", str(path), str(out_path)]) == 0
        assert _cumulative(json.loads(out_path.read_text())) == []


class TestProfile:
    def test_profile_writes_html_and_json(self, tmp_path, capsys):
        html = tmp_path / "report.html"
        json_path = tmp_path / "profile.json"
        code = main(
            ["profile", "--k", "4", "--l", "16", "--points-per-machine", "64",
             "--dim", "2", "--seed", "7",
             "--html", str(html), "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0  # consistent against its own cost model
        assert "cost profile: k=4" in out
        assert "binding terms" in out
        assert "leader ingest: machine" in out
        doc = json.loads(json_path.read_text())
        assert doc["format"] == "repro.obs/profile"
        assert doc["consistent"] is True
        assert len(doc["traffic_matrix"]["messages"]) == 4
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert '"repro.obs/profile"' in text

    def test_profile_custom_constants_change_the_binding_mix(self, capsys):
        # A huge gamma makes every traffic round receiver-bound, so the
        # binding table has no alpha- or beta-bound rounds at all.
        code = main(
            ["profile", "--k", "4", "--l", "8", "--points-per-machine", "32",
             "--dim", "2", "--seed", "3", "--gamma", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        binding_table = out.split("binding terms")[1].split("leader ingest")[0]
        assert "gamma" in binding_table
        assert "alpha" not in binding_table and "beta" not in binding_table
