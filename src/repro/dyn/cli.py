"""``python -m repro.dyn`` — demo, stress and report the dynamic-data layer.

Subcommands:

* ``demo`` — build a seeded corpus, run a short mixed stream of
  inserts, deletes and queries through a live
  :class:`~repro.serve.service.KNNService`, verify every answer
  against the sequential brute-force oracle at its epoch, and print
  the churn report.  ``--chrome`` / ``--jsonl`` export the session
  trace — update, rebalance and splitter phases appear as ``dyn/*``
  spans next to the serving phases.
* ``churn`` — a heavier seeded churn run (configurable mix and
  length), optionally starting from a *skewed* partition so the
  imbalance monitor and rebalancer actually fire.
* ``report`` — machine-readable: run a churn stream and dump the
  churn report plus every per-episode mutation record and its
  conformance check as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main"]


def _observe(args: argparse.Namespace, *, export: bool) -> str:
    """The observe level for a run: the event log when it is exported,
    else the timeline and link counters under ``--profile``, else spans
    on the exporting subcommands."""
    if export and (args.chrome or args.jsonl):
        return "trace"
    if args.profile:
        return "profile"
    return "spans" if export else "off"


def _build_service(args: argparse.Namespace, *, observe: str):
    import numpy as np

    from ..serve.service import KNNService

    rng = np.random.default_rng(args.seed)
    points = rng.uniform(0.0, 1.0, (args.corpus, args.dim))
    return KNNService(
        points,
        l=args.l,
        k=args.k,
        seed=args.seed,
        partitioner=args.partitioner,
        balance_threshold=args.balance_threshold,
        auto_rebalance=not args.no_rebalance,
        observe=observe,
        backend=args.backend,
    )


def _run(args: argparse.Namespace, *, observe: str):
    from .churn import make_churn, run_churn

    service = _build_service(args, observe=observe)
    stream = make_churn(
        args.ops,
        args.dim,
        seed=args.churn_seed,
        p_insert=args.p_insert,
        p_delete=args.p_delete,
    )
    report = run_churn(
        service,
        stream,
        seed=args.churn_seed,
        verify=not args.no_verify,
        balance_bound=args.balance_bound,
    )
    service.close()
    return service, report


def _export(service, args: argparse.Namespace) -> None:
    from ..obs.export import write_chrome_trace, write_jsonl

    session = service.session
    if getattr(args, "jsonl", None):
        path = write_jsonl(
            args.jsonl,
            session.tracer,
            session.spans,
            session.metrics,
            meta={"name": "dyn", "k": session.k, "l": session.l},
        )
        print(f"wrote {path}")
    if getattr(args, "chrome", None):
        path = write_chrome_trace(
            args.chrome,
            session.tracer,
            session.spans,
            session.metrics.timeline,
            name="dyn",
        )
        print(f"wrote {path}")


def _cmd_demo(args: argparse.Namespace) -> int:
    service, report = _run(args, observe=_observe(args, export=True))
    print(
        f"dyn demo on k={args.k}, l={args.l}, corpus n={args.corpus} "
        f"({args.partitioner} partition)"
    )
    print(report.summary())
    print(service.summary())
    _export(service, args)
    return 0 if report.passed or args.no_verify else 1


def _cmd_churn(args: argparse.Namespace) -> int:
    service, report = _run(args, observe=_observe(args, export=True))
    print(report.summary())
    session = service.session
    if session.mutations:
        worst = max(session.mutations, key=lambda m: m.ratio_before)
        print(
            f"  worst pre-episode ratio {worst.ratio_before:.2f} "
            f"(epoch {worst.epoch}); monitor peak "
            f"{session.monitor.peak_ratio:.2f}"
        )
    _export(service, args)
    return 0 if report.passed or args.no_verify else 1


def _cmd_report(args: argparse.Namespace) -> int:
    service, report = _run(args, observe=_observe(args, export=False))
    session = service.session
    payload = report.to_dict()
    payload["mutations"] = [m.to_dict() for m in session.mutations]
    payload["budgets"] = [r.to_dict() for r in report.budget_reports]
    payload["stats"] = service.stats_report()
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0 if report.passed or args.no_verify else 1


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    from ..core.driver import BACKENDS

    sub.add_argument("--k", type=int, default=4, help="machines (default 4)")
    sub.add_argument("--l", type=int, default=8, help="neighbors (default 8)")
    sub.add_argument(
        "--corpus", type=int, default=2000, help="initial corpus size (default 2000)"
    )
    sub.add_argument("--dim", type=int, default=3, help="dimensions (default 3)")
    sub.add_argument("--seed", type=int, default=0, help="corpus/cluster seed")
    sub.add_argument(
        "--ops", type=int, default=200, help="churn stream length (default 200)"
    )
    sub.add_argument(
        "--churn-seed", type=int, default=1, help="churn stream seed (default 1)"
    )
    sub.add_argument(
        "--p-insert", type=float, default=0.2, help="insert probability (default 0.2)"
    )
    sub.add_argument(
        "--p-delete", type=float, default=0.15, help="delete probability (default 0.15)"
    )
    sub.add_argument(
        "--partitioner",
        choices=("random", "skewed"),
        default="random",
        help="initial placement; 'skewed' starts imbalanced so the "
        "rebalancer fires (default random)",
    )
    sub.add_argument(
        "--balance-threshold",
        type=float,
        default=2.0,
        help="imbalance ratio that triggers a rebalance (default 2.0)",
    )
    sub.add_argument(
        "--balance-bound",
        type=float,
        default=2.0,
        help="acceptance bound max_i n_i <= bound*(n/k) (default 2.0)",
    )
    sub.add_argument(
        "--no-rebalance",
        action="store_true",
        help="disable the auto-rebalancer (watch the ratio drift)",
    )
    sub.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the brute-force verification pass",
    )
    sub.add_argument(
        "--backend",
        choices=BACKENDS,
        default="sim",
        help="cluster executor: in-process simulator (default) or the "
        "TCP runtime (one OS process per machine; incompatible with "
        "--chrome/--jsonl tracing)",
    )
    sub.add_argument("--chrome", help="export Chrome trace JSON to this path")
    sub.add_argument("--jsonl", help="export structured JSONL log to this path")
    sub.add_argument(
        "--profile",
        action="store_true",
        help="record per-link counters; `report` then includes "
        "leader-ingest and critical-path fields",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dyn",
        description="Dynamic data layer: live updates, epochs, rebalancing.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="short verified churn demo")
    _add_common_args(demo)
    demo.set_defaults(func=_cmd_demo)

    churn = commands.add_parser("churn", help="heavier seeded churn run")
    _add_common_args(churn)
    churn.set_defaults(func=_cmd_churn)

    report = commands.add_parser("report", help="dump the churn report JSON")
    _add_common_args(report)
    report.add_argument("--out", help="write JSON here instead of stdout")
    report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    if args.func is _cmd_demo and args.ops > 500:
        print("demo caps at 500 ops; use `churn`", file=sys.stderr)
        return 2
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
