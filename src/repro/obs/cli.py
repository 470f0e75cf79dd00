"""``python -m repro.obs`` — inspect, convert and demo trace exports.

Subcommands:

* ``info <run.jsonl>`` — header, metrics summary and span statistics
  of a JSONL log written by :func:`repro.obs.export.write_jsonl`.
* ``spans <run.jsonl>`` — the per-machine span trees plus the
  phase-attribution report.
* ``convert <run.jsonl> <out.json>`` — convert a JSONL log to Chrome
  ``trace_event`` JSON (load it at https://ui.perfetto.dev).
* ``demo`` — run a seeded ``distributed_knn`` at ``observe="trace"``,
  print attribution and theory conformance, and optionally export
  both formats (``--jsonl`` / ``--chrome``).
* ``profile`` — run a seeded ``distributed_knn`` under the cost-model
  profiler (:mod:`repro.obs.profile`): per-round binding-term
  attribution, k×k traffic matrix, leader-ingest share, critical path
  and phase costs, with ``--html`` / ``--json`` report exports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from .conformance import check_knn_result
from .export import read_jsonl, write_chrome_trace, write_jsonl
from .spans import Span, phase_attribution

__all__ = ["main"]


def _format_span_trees(spans: Iterable[Span]) -> str:
    """Per-machine span trees with deltas (standalone span lists)."""
    spans = list(spans)
    lines: list[str] = []
    for rank in sorted({s.machine for s in spans}):
        lines.append(f"machine {rank}:")
        for span in spans:
            if span.machine != rank:
                continue
            pad = "  " * (span.depth + 1)
            end = "?" if span.end_round is None else str(span.end_round)
            lines.append(
                f"{pad}{span.name}: rounds {span.start_round}..{end} "
                f"(+{span.rounds}) messages +{span.messages} bits +{span.bits}"
            )
    return "\n".join(lines)


def _cmd_info(args: argparse.Namespace) -> int:
    meta, events, spans, metrics = read_jsonl(args.path)
    print(f"file: {args.path}")
    if meta:
        shown = {k: v for k, v in meta.items() if k != "type"}
        print("meta: " + json.dumps(shown))
    print(f"events: {len(events)}  spans: {len(spans)}")
    if events:
        kinds: dict[str, int] = {}
        for e in events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        print(
            "event kinds: "
            + " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        )
    if metrics is not None:
        print("metrics: " + metrics.summary())
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    _, _, spans, metrics = read_jsonl(args.path)
    if not spans:
        print("no spans recorded in this log", file=sys.stderr)
        return 1
    print(_format_span_trees(spans))
    total = metrics.messages if metrics is not None else max(
        (s.end_messages or 0 for s in spans), default=0
    )
    print("phase attribution:")
    print(phase_attribution(spans, total).format())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    meta, events, spans, metrics = read_jsonl(args.path)
    timeline = metrics.timeline if metrics is not None else []
    name = str(meta.get("name", "repro")) if meta else "repro"
    out = write_chrome_trace(args.out, events, spans, timeline, name=name)
    print(
        f"wrote {out} ({len(events)} events, {len(spans)} spans, "
        f"{len(timeline)} rounds)"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Heavy imports stay local so `info`/`convert` start instantly.
    import numpy as np

    from ..core.driver import distributed_knn

    rng = np.random.default_rng(args.seed)
    points = rng.uniform(0.0, 1.0, (args.k * args.points_per_machine, args.dim))
    result = distributed_knn(
        points, query=points[0], l=args.l, k=args.k, seed=args.seed, observe="trace"
    )
    print(f"distributed_knn: k={args.k} l={args.l} n={len(points)}")
    print("metrics: " + result.metrics.summary())
    print("phase attribution:")
    attribution = phase_attribution(result.raw.spans, result.metrics.messages)
    print(attribution.format())
    report = check_knn_result(result, l=args.l, k=args.k)
    print(report.summary())
    if args.jsonl:
        path = write_jsonl(
            args.jsonl,
            result.raw.tracer,
            result.raw.spans,
            result.metrics,
            meta={"name": "knn-demo", "k": args.k, "l": args.l,
                  "seed": args.seed, "n": len(points)},
        )
        print(f"wrote {path}")
    if args.chrome:
        path = write_chrome_trace(
            args.chrome,
            result.raw.tracer,
            result.raw.spans,
            result.metrics.timeline,
            name="knn-demo",
        )
        print(f"wrote {path}")
    return 0 if report.passed and attribution.coverage >= 0.95 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    # Heavy imports stay local so `info`/`convert` start instantly.
    import numpy as np

    from ..core.driver import distributed_knn
    from ..kmachine.timing import DEFAULT_COST_MODEL, CostModel
    from .profile import CostProfile
    from .report import write_report

    cost_model = CostModel(
        alpha_seconds=args.alpha,
        beta_bits_per_second=args.beta,
        gamma_seconds_per_message=args.gamma,
        idle_round_seconds=DEFAULT_COST_MODEL.idle_round_seconds,
    )
    rng = np.random.default_rng(args.seed)
    points = rng.uniform(0.0, 1.0, (args.k * args.points_per_machine, args.dim))
    result = distributed_knn(
        points,
        query=points[0],
        l=args.l,
        k=args.k,
        seed=args.seed,
        observe="profile",
        cost_model=cost_model,
    )
    profile = CostProfile(
        result.metrics, cost_model=cost_model, spans=result.raw.spans, k=args.k
    )
    print(f"distributed_knn: k={args.k} l={args.l} n={len(points)}")
    print(profile.summary())
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            json.dump(profile.to_dict(), fh, indent=1)
            fh.write("\n")
        print(f"wrote {out}")
    if args.html:
        print(f"wrote {write_report(profile, args.html)}")
    return 0 if profile.consistent else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, convert and demo repro.obs trace exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarise a JSONL trace log")
    p_info.add_argument("path", help="path to a .jsonl log")
    p_info.set_defaults(fn=_cmd_info)

    p_spans = sub.add_parser("spans", help="print span trees + attribution")
    p_spans.add_argument("path", help="path to a .jsonl log")
    p_spans.set_defaults(fn=_cmd_spans)

    p_conv = sub.add_parser("convert", help="JSONL log -> Chrome trace JSON")
    p_conv.add_argument("path", help="path to a .jsonl log")
    p_conv.add_argument("out", help="output .json path (Perfetto-loadable)")
    p_conv.set_defaults(fn=_cmd_convert)

    p_demo = sub.add_parser(
        "demo", help="run a seeded KNN query with full observability"
    )
    p_demo.add_argument("--k", type=int, default=8, help="machines (default 8)")
    p_demo.add_argument("--l", type=int, default=64, help="neighbors (default 64)")
    p_demo.add_argument(
        "--points-per-machine", type=int, default=512,
        help="points per machine (default 512)",
    )
    p_demo.add_argument("--dim", type=int, default=4, help="dimensions (default 4)")
    p_demo.add_argument("--seed", type=int, default=7, help="root seed (default 7)")
    p_demo.add_argument("--jsonl", help="also write a JSONL log here")
    p_demo.add_argument("--chrome", help="also write Chrome trace JSON here")
    p_demo.set_defaults(fn=_cmd_demo)

    p_prof = sub.add_parser(
        "profile", help="run a seeded KNN query under the cost-model profiler"
    )
    p_prof.add_argument("--k", type=int, default=8, help="machines (default 8)")
    p_prof.add_argument("--l", type=int, default=64, help="neighbors (default 64)")
    p_prof.add_argument(
        "--points-per-machine", type=int, default=512,
        help="points per machine (default 512)",
    )
    p_prof.add_argument("--dim", type=int, default=4, help="dimensions (default 4)")
    p_prof.add_argument("--seed", type=int, default=7, help="root seed (default 7)")
    p_prof.add_argument(
        "--alpha", type=float, default=50e-6,
        help="per-round latency, seconds (default 50e-6)",
    )
    p_prof.add_argument(
        "--beta", type=float, default=1e9,
        help="link bandwidth, bits/second (default 1e9)",
    )
    p_prof.add_argument(
        "--gamma", type=float, default=2e-6,
        help="per-message receiver overhead, seconds (default 2e-6)",
    )
    p_prof.add_argument("--html", help="write the self-contained HTML report here")
    p_prof.add_argument("--json", help="write the profile JSON document here")
    p_prof.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
