"""HTML report rendering: embedded JSON, escaping, file output."""

from __future__ import annotations

import json

import pytest

from repro.kmachine import FunctionProgram, Simulator
from repro.kmachine.timing import CostModel
from repro.obs.profile import CostProfile
from repro.obs.report import render_html, write_report

CM = CostModel(
    alpha_seconds=1.0,
    beta_bits_per_second=100.0,
    gamma_seconds_per_message=0.5,
    idle_round_seconds=0.0,
)


def ping_program(ctx):
    if ctx.rank == 0:
        ctx.send(1, "ping", "x")
        yield
    else:
        yield from ctx.recv_one("ping")
    return None


@pytest.fixture(scope="module")
def profile() -> CostProfile:
    result = Simulator(
        k=2, program=FunctionProgram(ping_program), observe="profile", cost_model=CM
    ).run()
    return CostProfile(result.metrics, cost_model=CM, k=2)


def _embedded_json(html: str) -> dict:
    marker = '<script type="application/json" id="profile-data">'
    start = html.index(marker) + len(marker)
    end = html.index("</script>", start)
    return json.loads(html[start:end].replace("<\\/", "</"))


class TestRenderHtml:
    def test_is_a_self_contained_document(self, profile):
        html = render_html(profile)
        assert html.startswith("<!DOCTYPE html>")
        assert "</html>" in html
        # No external assets: script/style are inline, nothing fetched.
        assert "http://" not in html and "https://" not in html
        assert "src=" not in html

    def test_embedded_json_is_the_profile_document(self, profile):
        doc = _embedded_json(render_html(profile))
        assert doc == json.loads(json.dumps(profile.to_dict()))

    def test_accepts_a_plain_dict(self, profile):
        doc = profile.to_dict()
        assert render_html(doc) == render_html(profile)

    def test_escapes_script_closers_inside_the_payload(self, profile):
        doc = profile.to_dict()
        doc["phases"] = [{"name": "</script><script>alert(1)"}]
        html = render_html(doc)
        # The hostile name cannot terminate the data block early...
        assert "</script><script>alert(1)" not in html
        assert "<\\/script><script>alert(1)" in html
        # ...and decodes back to the original string.
        assert _embedded_json(html)["phases"][0]["name"] == (
            "</script><script>alert(1)"
        )


class TestWriteReport:
    def test_writes_file_and_creates_parents(self, profile, tmp_path):
        target = tmp_path / "deep" / "nested" / "report.html"
        out = write_report(profile, target)
        assert out == target and target.exists()
        assert _embedded_json(target.read_text())["k"] == 2
