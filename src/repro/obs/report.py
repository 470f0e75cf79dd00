"""Self-contained HTML report for a :class:`~repro.obs.profile.CostProfile`.

One file, no external assets, no network access: the profile's JSON
document is embedded in a ``<script type="application/json">`` block
and a small amount of vanilla JavaScript renders it client-side —
stat tiles, the k×k traffic-matrix heatmap, a per-round binding
strip, the critical-path and phase tables, and a nested-div
flamegraph.  The same document is what ``python -m repro.obs profile
--json`` writes, so the HTML is a *view*, never a second source of
truth: anything scriptable should consume the JSON.

Rendering happens in the browser rather than in Python so the Python
side stays trivial (``json.dumps`` + a template) and the report can
be regenerated from an archived JSON document by pasting it into the
same template.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .profile import CostProfile

__all__ = ["render_html", "write_report"]

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro cost profile</title>
<style>
  body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 1.5rem;
         background: #fafafa; color: #222; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  .tiles { display: flex; flex-wrap: wrap; gap: .6rem; }
  .tile { background: #fff; border: 1px solid #ddd; border-radius: 6px;
          padding: .5rem .9rem; min-width: 7rem; }
  .tile .v { font-size: 1.2rem; font-weight: 600; }
  .tile .l { font-size: .72rem; color: #666; text-transform: uppercase; }
  table { border-collapse: collapse; background: #fff; }
  th, td { border: 1px solid #ddd; padding: .25rem .55rem; font-size: .82rem;
           text-align: right; }
  th { background: #f0f0f0; }
  td.name, th.name { text-align: left; }
  .strip { display: flex; height: 26px; border: 1px solid #ccc;
           border-radius: 3px; overflow: hidden; max-width: 100%; }
  .strip div { flex: 1 0 2px; }
  .legend span { display: inline-block; margin-right: 1rem; font-size: .8rem; }
  .legend i { display: inline-block; width: .8rem; height: .8rem;
              margin-right: .3rem; vertical-align: middle; border-radius: 2px; }
  .flame div { box-sizing: border-box; border: 1px solid rgba(255,255,255,.7);
               border-radius: 2px; font-size: .7rem; overflow: hidden;
               white-space: nowrap; padding: 1px 3px; color: #402; }
  .flame .row { display: flex; border: 0; padding: 0; background: none; }
  .bad { color: #b00020; font-weight: 600; }
  .ok { color: #1b7a2f; font-weight: 600; }
</style>
</head>
<body>
<h1>Cost-model profile</h1>
<div id="tiles" class="tiles"></div>
<h2>Binding terms</h2>
<div id="binding"></div>
<h2>Per-round binding strip</h2>
<div id="strip" class="strip"></div>
<div id="striplegend" class="legend"></div>
<h2>Traffic matrix (messages, src row &rarr; dst column)</h2>
<div id="matrix"></div>
<h2>Critical path</h2>
<div id="critical"></div>
<h2>Phase costs</h2>
<div id="phases"></div>
<h2>Modelled-time flamegraph</h2>
<div id="flame" class="flame"></div>
<script type="application/json" id="profile-data">__PROFILE_JSON__</script>
<script>
"use strict";
const P = JSON.parse(document.getElementById("profile-data").textContent);
const COLORS = {alpha: "#4e79a7", beta: "#e15759", gamma: "#f28e2b",
                idle: "#bbb", none: "#888"};
const fmt = (x, d) => Number(x).toLocaleString("en-US",
  {maximumFractionDigits: d === undefined ? 0 : d});
const secs = x => x >= 1 ? fmt(x, 3) + " s"
  : x >= 1e-3 ? fmt(x * 1e3, 3) + " ms" : fmt(x * 1e6, 1) + " \\u00b5s";

function tile(label, value, cls) {
  return `<div class="tile"><div class="v ${cls || ""}">${value}</div>` +
         `<div class="l">${label}</div></div>`;
}
const share = P.leader_ingest_share;
document.getElementById("tiles").innerHTML = [
  tile("machines (k)", P.k),
  tile("rounds", fmt(P.totals.rounds)),
  tile("messages", fmt(P.totals.messages)),
  tile("bits", fmt(P.totals.bits)),
  tile("comm time", secs(P.totals.comm_seconds)),
  tile("leader ingest", share == null ? "n/a"
       : (share * 100).toFixed(1) + "% @ m" + P.leader),
  tile("model check", P.consistent ? "consistent" : "MISMATCH",
       P.consistent ? "ok" : "bad"),
].join("");

// Binding-term table.
{
  const rows = Object.keys(P.binding_seconds).map(term => {
    const s = P.binding_seconds[term];
    const total = Object.values(P.binding_seconds).reduce((a, b) => a + b, 0) || 1;
    return `<tr><td class="name"><i style="background:${COLORS[term] || "#888"};` +
      `display:inline-block;width:.7rem;height:.7rem;border-radius:2px"></i> ${term}</td>` +
      `<td>${fmt(P.binding_rounds[term] || 0)}</td><td>${secs(s)}</td>` +
      `<td>${(100 * s / total).toFixed(1)}%</td></tr>`;
  }).join("");
  document.getElementById("binding").innerHTML =
    `<table><tr><th class="name">binding term</th><th>rounds</th>` +
    `<th>modelled time</th><th>share</th></tr>${rows}</table>`;
}

// Per-round strip: one sliver per round, colored by binding term.
{
  const strip = document.getElementById("strip");
  strip.innerHTML = P.rounds_detail.map(r => {
    const who = r.binding_link ? ` link ${r.binding_link[0]}\\u2192${r.binding_link[1]}`
      : r.binding_machine != null ? ` machine ${r.binding_machine}` : "";
    return `<div style="background:${COLORS[r.binding] || "#888"}" ` +
      `title="round ${r.round}: ${r.binding}${who}, ${secs(r.modelled_seconds)}"></div>`;
  }).join("");
  document.getElementById("striplegend").innerHTML = Object.keys(COLORS).map(
    t => `<span><i style="background:${COLORS[t]}"></i>${t}</span>`).join("");
}

// Traffic-matrix heatmap: cell shade scales with message count.
{
  const M = P.traffic_matrix.messages;
  const peak = Math.max(1, ...M.flat());
  let html = "<table><tr><th></th>" +
    M.map((_, j) => `<th>\\u2192${j}</th>`).join("") + "</tr>";
  M.forEach((row, i) => {
    html += `<tr><th>${i}</th>` + row.map(v => {
      const a = v ? 0.12 + 0.78 * (v / peak) : 0;
      return `<td style="background:rgba(225,87,89,${a.toFixed(3)})">` +
             `${v ? fmt(v) : ""}</td>`;
    }).join("") + "</tr>";
  });
  document.getElementById("matrix").innerHTML = html + "</table>";
}

// Critical-path table (top 12 segments by modelled time).
{
  const segs = [...P.critical_path].sort((a, b) => b.seconds - a.seconds)
    .slice(0, 12);
  document.getElementById("critical").innerHTML = segs.length
    ? `<table><tr><th>rounds</th><th class="name">binding</th>` +
      `<th class="name">entity</th><th>span</th><th>modelled time</th></tr>` +
      segs.map(s =>
        `<tr><td>${s.start_round}\\u2013${s.end_round}</td>` +
        `<td class="name">${s.binding}</td><td class="name">${s.entity}</td>` +
        `<td>${fmt(s.rounds)}</td><td>${secs(s.seconds)}</td></tr>`).join("") +
      "</table>"
    : "<p>No traffic rounds recorded.</p>";
}

// Phase table.
{
  document.getElementById("phases").innerHTML = P.phases.length
    ? `<table><tr><th class="name">phase</th><th>rounds</th><th>messages</th>` +
      `<th>bits</th><th>modelled time</th><th class="name">by term</th></tr>` +
      P.phases.map(p => {
        const terms = Object.entries(p.by_term)
          .sort((a, b) => b[1] - a[1])
          .map(([t, s]) => `${t} ${secs(s)}`).join(", ");
        return `<tr><td class="name">${p.name}</td><td>${fmt(p.rounds)}</td>` +
          `<td>${fmt(p.messages)}</td><td>${fmt(p.bits)}</td>` +
          `<td>${secs(p.seconds)}</td><td class="name">${terms}</td></tr>`;
      }).join("") + "</table>"
    : "<p>No spans in this run (every observe level but off records them).</p>";
}

// Flamegraph: nested rows, widths proportional to modelled seconds.
{
  const root = document.getElementById("flame");
  const PALETTE = ["#ffd27f", "#ffb27f", "#ff927f", "#e8827f", "#d0729f"];
  function render(node, depth, container, scale) {
    const div = document.createElement("div");
    const width = Math.max(0.2, 100 * node.value * scale);
    div.style.width = width + "%";
    div.style.background = PALETTE[Math.min(depth, PALETTE.length - 1)];
    div.title = `${node.name}: ${secs(node.value)}, ${fmt(node.rounds)} rounds, ` +
                `${fmt(node.messages)} messages`;
    div.textContent = node.name;
    container.appendChild(div);
    if (node.children && node.children.length) {
      const row = document.createElement("div");
      row.className = "row";
      row.style.width = width + "%";
      container.appendChild(row);
      const inner = node.value || 1;
      node.children.forEach(c => render(c, depth + 1, row, 1 / inner));
    }
  }
  if (P.flamegraph.length) {
    const total = P.flamegraph.reduce((a, n) => a + n.value, 0) || 1;
    P.flamegraph.forEach(n => {
      const lane = document.createElement("div");
      lane.className = "row";
      root.appendChild(lane);
      render(n, 0, lane, 1 / total);
    });
  } else {
    root.textContent = "No spans recorded.";
  }
}
</script>
</body>
</html>
"""


def render_html(profile: CostProfile | dict[str, Any]) -> str:
    """Render a profile (object or its ``to_dict`` document) to HTML.

    The JSON is embedded with ``</`` escaped so arbitrary span names
    cannot break out of the script block.
    """
    doc = profile.to_dict() if isinstance(profile, CostProfile) else profile
    payload = json.dumps(doc).replace("</", "<\\/")
    return _TEMPLATE.replace("__PROFILE_JSON__", payload)


def write_report(profile: CostProfile | dict[str, Any], path: str | Path) -> Path:
    """Write the self-contained HTML report; returns the path written."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(profile), encoding="utf-8")
    return out
