"""``python -m repro.serve`` — demo, replay and inspect the serving layer.

Subcommands:

* ``demo`` — build a seeded corpus, generate a workload (uniform /
  bursty / drift), serve it through :class:`~repro.serve.service.
  KNNService`, verify every answer against the sequential brute-force
  oracle, and print the service summary.  ``--chrome`` / ``--jsonl``
  export the session trace (scheduler decisions appear on their own
  track next to the protocol phases).
* ``workload`` — generate a seeded workload and save it as JSON, so a
  traffic shape can be pinned once and replayed everywhere.
* ``replay`` — serve a saved workload file.
* ``stats`` — like ``demo`` but machine-readable: dump the full stats
  report (aggregate + per-query records) as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main"]


def _corpus(args: argparse.Namespace):
    import numpy as np

    rng = np.random.default_rng(args.seed)
    return rng.uniform(0.0, 1.0, (args.corpus, args.dim))


def _observe(args: argparse.Namespace) -> str:
    """Spans for every served run; the event log once it is exported."""
    return "trace" if args.chrome or args.jsonl else "spans"


def _build_service(args: argparse.Namespace, *, observe: str):
    from .service import KNNService

    return KNNService(
        _corpus(args),
        l=args.l,
        k=args.k,
        seed=args.seed,
        window=args.window,
        max_batch=args.max_batch,
        policy=args.policy,
        observe=observe,
    )


def _serve_workload(service, workload, *, verify: bool) -> int:
    """Replay, optionally verify against brute force; returns bad count."""
    from ..sequential.brute import brute_force_knn_ids

    answers = service.replay(workload)
    if not verify:
        return 0
    dataset = service.session.dataset
    bad = 0
    for qid, event in enumerate(workload):
        expected = brute_force_knn_ids(
            dataset, event.query, service.session.l, metric=service.session.metric
        )
        got = answers[qid].ids
        if sorted(int(i) for i in got) != sorted(int(i) for i in expected):
            bad += 1
    return bad


def _export(service, args: argparse.Namespace) -> None:
    from ..obs.export import write_chrome_trace, write_jsonl

    session = service.session
    if getattr(args, "jsonl", None):
        path = write_jsonl(
            args.jsonl,
            session.tracer,
            session.spans,
            session.metrics,
            meta={"name": "serve", "k": session.k, "l": session.l},
        )
        print(f"wrote {path}")
    if getattr(args, "chrome", None):
        path = write_chrome_trace(
            args.chrome,
            session.tracer,
            session.spans,
            session.metrics.timeline,
            name="serve",
        )
        print(f"wrote {path}")


def _make_workload(args: argparse.Namespace):
    from .workload import make_workload

    return make_workload(
        args.workload, args.queries, args.dim, seed=args.workload_seed
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    service = _build_service(args, observe=_observe(args))
    workload = _make_workload(args)
    bad = _serve_workload(service, workload, verify=not args.no_verify)
    service.close()
    print(
        f"served {len(workload)} {workload.kind} queries on k={args.k}, "
        f"l={args.l}, corpus n={args.corpus}"
    )
    print(service.summary())
    if not args.no_verify:
        ok = len(workload) - bad
        print(f"verified against brute force: {ok}/{len(workload)} exact")
    _export(service, args)
    return 1 if bad else 0


def _cmd_workload(args: argparse.Namespace) -> int:
    workload = _make_workload(args)
    workload.save(args.out)
    print(f"wrote {args.out} ({len(workload)} {workload.kind} events)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .workload import Workload

    workload = Workload.load(args.path)
    if not len(workload):
        print("workload is empty", file=sys.stderr)
        return 1
    args.dim = workload.dim
    service = _build_service(args, observe=_observe(args))
    bad = _serve_workload(service, workload, verify=not args.no_verify)
    service.close()
    print(f"replayed {args.path}: {len(workload)} {workload.kind} events")
    print(service.summary())
    if not args.no_verify:
        print(
            f"verified against brute force: {len(workload) - bad}/{len(workload)} exact"
        )
    _export(service, args)
    return 1 if bad else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    service = _build_service(args, observe="off")
    workload = _make_workload(args)
    _serve_workload(service, workload, verify=False)
    service.close()
    report = service.stats_report()
    report["records"] = [r.to_dict() for r in service.stats.records]
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _add_cluster_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=4, help="machines (default 4)")
    sub.add_argument("--l", type=int, default=8, help="neighbors (default 8)")
    sub.add_argument(
        "--corpus", type=int, default=4000, help="corpus size (default 4000)"
    )
    sub.add_argument("--dim", type=int, default=3, help="dimensions (default 3)")
    sub.add_argument("--seed", type=int, default=0, help="corpus/cluster seed")
    sub.add_argument(
        "--window", type=float, default=4.0, help="micro-batch window (default 4)"
    )
    sub.add_argument(
        "--max-batch", type=int, default=8, help="micro-batch size cap (default 8)"
    )
    sub.add_argument(
        "--policy",
        choices=("fifo", "deadline"),
        default="fifo",
        help="scheduling policy",
    )
    sub.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the brute-force verification pass",
    )
    sub.add_argument("--chrome", help="export Chrome trace JSON to this path")
    sub.add_argument("--jsonl", help="export structured JSONL log to this path")


def _add_workload_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workload",
        choices=("uniform", "bursty", "drift"),
        default="bursty",
        help="arrival process (default bursty)",
    )
    sub.add_argument(
        "--queries", type=int, default=64, help="workload length (default 64)"
    )
    sub.add_argument(
        "--workload-seed", type=int, default=1, help="workload seed (default 1)"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online l-NN serving layer: demo, replay, stats.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="serve a generated workload")
    _add_cluster_args(demo)
    _add_workload_args(demo)
    demo.set_defaults(func=_cmd_demo)

    workload = commands.add_parser("workload", help="generate a workload file")
    workload.add_argument("out", help="output JSON path")
    workload.add_argument("--dim", type=int, default=3)
    _add_workload_args(workload)
    workload.set_defaults(func=_cmd_workload)

    replay = commands.add_parser("replay", help="serve a saved workload file")
    replay.add_argument("path", help="workload JSON written by `workload`")
    _add_cluster_args(replay)
    replay.set_defaults(func=_cmd_replay)

    stats = commands.add_parser("stats", help="dump the full stats report JSON")
    _add_cluster_args(stats)
    _add_workload_args(stats)
    stats.add_argument("--out", help="write JSON here instead of stdout")
    stats.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
