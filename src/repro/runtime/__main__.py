"""CLI for the TCP runtime backend: launch, join, smoke, calibrate, sweep.

Cross-host quickstart (two terminals, same Python tree on both)::

    # terminal A — coordinator + 3 local machines, 1 remote slot
    python -m repro.runtime launch --k 4 --external 1 \\
        --listen 0.0.0.0:48800 --workload knn

    # terminal B — one machine process joining the cluster
    python -m repro.runtime join --connect hostA:48800

Both terminals may also be on one box (use ``127.0.0.1``).  With
``--external 0`` the launch command runs entirely locally, which is
what the CI smoke job does::

    python -m repro.runtime smoke --k 4

``calibrate`` measures the α–β–γ cost-model constants from the live
transport and prints them as JSON; ``sweep`` reruns the Figure-2 style
scaling curve on real TCP (paper-like scale is opt-in via
``--points-per-machine``/``--k-values`` — the defaults finish on a
laptop).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _cmd_join(args: argparse.Namespace) -> int:
    from .net import peer_main

    host, port = args.connect
    return peer_main(host, port, verbose=not args.quiet)


def _net_options(args: argparse.Namespace):
    from .net import NetOptions

    host, port = args.listen
    return NetOptions(
        host=host,
        port=port,
        external_peers=args.external,
        round_timeout=args.round_timeout,
    )


def _run_knn(k, options, *, n_per_machine=2048, dim=8, l=16, seed=7):
    """One profiled distributed_knn run on the net backend; returns
    (result, wall)."""
    from ..core.driver import distributed_knn

    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_per_machine * k, dim))
    query = rng.standard_normal(dim)
    started = time.perf_counter()
    result = distributed_knn(
        points, query, l, k, seed=seed, observe="profile",
        backend="net", net_options=options,
    )
    return result, time.perf_counter() - started


def _cmd_launch(args: argparse.Namespace) -> int:
    options = _net_options(args)
    if args.external:
        host, port = args.listen
        print(
            f"[launch] waiting for {args.external} external peer(s): "
            f"python -m repro.runtime join --connect <this-host>:{port or '?'}",
            flush=True,
        )
    if args.workload == "select":
        from ..core.driver import distributed_select

        rng = np.random.default_rng(args.seed)
        values = rng.standard_normal(4096 * args.k)
        started = time.perf_counter()
        result = distributed_select(
            values, 32, args.k, seed=args.seed,
            backend="net", net_options=options,
        )
        wall = time.perf_counter() - started
        print(json.dumps({
            "workload": "select",
            "k": args.k,
            "rounds": result.metrics.rounds,
            "messages": result.metrics.messages,
            "smallest": float(result.values[0]),
            "wall_seconds": round(wall, 3),
        }, indent=2))
        return 0
    result, wall = _run_knn(args.k, options, seed=args.seed)
    print(json.dumps({
        "workload": "knn",
        "k": args.k,
        "rounds": result.metrics.rounds,
        "messages": result.metrics.messages,
        "neighbors": int(result.ids.size),
        "wall_seconds": round(wall, 3),
    }, indent=2))
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """Localhost end-to-end: select + knn + one serve batch (CI gate)."""
    from .net import NetOptions
    from ..core.driver import distributed_knn, distributed_select
    from ..serve.session import ClusterSession, QueryJob

    k = args.k
    seed = 11
    rng = np.random.default_rng(seed)
    report: dict = {"k": k}

    values = rng.standard_normal(1024 * k)
    sel_net = distributed_select(values, 16, k, seed=seed, backend="net")
    sel_sim = distributed_select(values, 16, k, seed=seed)
    assert np.array_equal(sel_net.ids, sel_sim.ids), "select: net != sim"
    report["select_rounds"] = sel_net.metrics.rounds

    points = rng.standard_normal((1024 * k, 6))
    query = rng.standard_normal(6)
    knn_net = distributed_knn(points, query, 8, k, seed=seed, backend="net")
    knn_sim = distributed_knn(points, query, 8, k, seed=seed)
    assert np.array_equal(knn_net.ids, knn_sim.ids), "knn: net != sim"
    report["knn_rounds"] = knn_net.metrics.rounds

    session = ClusterSession(
        points, 8, k, seed=seed, backend="net",
        net_options=NetOptions(round_timeout=args.round_timeout),
    )
    try:
        jobs = [QueryJob(qid=i, query=rng.standard_normal(6)) for i in range(4)]
        batch = session.run_batch(jobs)
    finally:
        session.close()
    report["serve_queries"] = len(batch)
    print(json.dumps(report, indent=2))
    print("net smoke OK", file=sys.stderr)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibrate import calibrate

    model, detail = calibrate(
        k=args.k,
        rounds=args.rounds,
        payload_bytes=args.payload_bytes,
        burst=args.burst,
        seed=args.seed,
    )
    out = {
        "alpha_seconds": model.alpha_seconds,
        "beta_bits_per_second": model.beta_bits_per_second,
        "gamma_seconds_per_message": model.gamma_seconds_per_message,
        "detail": detail,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Figure-2 style k-scaling on real TCP, with calibrated model check."""
    from .calibrate import calibrate
    from .net import NetOptions

    model, _ = calibrate(k=2, rounds=args.calibration_rounds, seed=args.seed)
    rows = []
    for k in args.k_values:
        result, wall = _run_knn(
            k,
            NetOptions(round_timeout=args.round_timeout),
            n_per_machine=args.points_per_machine,
            dim=args.dim,
            l=args.l,
            seed=args.seed,
        )
        rows.append({
            "k": k,
            "n_per_machine": args.points_per_machine,
            "rounds": result.metrics.rounds,
            "messages": result.metrics.messages,
            "bits": result.metrics.bits,
            "wall_seconds": round(wall, 4),
            "predicted_seconds": round(
                sum(model.round_cost(r.max_link_bits, r.messages_sent > 0,
                                     r.max_dst_messages)
                    for r in result.metrics.timeline)
                + result.metrics.compute_seconds, 4),
        })
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({
        "alpha_seconds": model.alpha_seconds,
        "beta_bits_per_second": model.beta_bits_per_second,
        "gamma_seconds_per_message": model.gamma_seconds_per_message,
        "rows": rows,
    }, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="TCP runtime backend: launch/join clusters, smoke, calibrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_join = sub.add_parser("join", help="join a coordinator as one machine")
    p_join.add_argument("--connect", type=_parse_endpoint, required=True,
                        metavar="HOST:PORT")
    p_join.add_argument("--quiet", action="store_true")
    p_join.set_defaults(func=_cmd_join)

    p_launch = sub.add_parser("launch", help="run a workload as coordinator")
    p_launch.add_argument("--k", type=int, default=4)
    p_launch.add_argument("--external", type=int, default=0,
                          help="ranks reserved for cross-host join commands")
    p_launch.add_argument("--listen", type=_parse_endpoint,
                          default=("127.0.0.1", 0), metavar="HOST:PORT")
    p_launch.add_argument("--workload", choices=("select", "knn"),
                          default="knn")
    p_launch.add_argument("--seed", type=int, default=7)
    p_launch.add_argument("--round-timeout", type=float, default=60.0)
    p_launch.set_defaults(func=_cmd_launch)

    p_smoke = sub.add_parser("smoke", help="localhost select+knn+serve gate")
    p_smoke.add_argument("--k", type=int, default=4)
    p_smoke.add_argument("--round-timeout", type=float, default=60.0)
    p_smoke.set_defaults(func=_cmd_smoke)

    p_cal = sub.add_parser("calibrate", help="measure α-β-γ from live TCP")
    p_cal.add_argument("--k", type=int, default=2)
    p_cal.add_argument("--rounds", type=int, default=30)
    p_cal.add_argument("--payload-bytes", type=int, default=1 << 22)
    p_cal.add_argument("--burst", type=int, default=64)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_sweep = sub.add_parser("sweep", help="k-scaling sweep on real TCP")
    p_sweep.add_argument("--k-values", type=int, nargs="+",
                         default=[2, 4, 8],
                         help="paper scale: --k-values 2 4 8 16 32")
    p_sweep.add_argument("--points-per-machine", type=int, default=4096,
                         help="paper scale: 1048576 (2^20)")
    p_sweep.add_argument("--dim", type=int, default=8)
    p_sweep.add_argument("--l", type=int, default=32)
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument("--round-timeout", type=float, default=300.0)
    p_sweep.add_argument("--calibration-rounds", type=int, default=30)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
