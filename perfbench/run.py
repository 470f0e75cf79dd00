"""The repository benchmark: four query workloads through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown from a traced run; ``--workload all`` runs each workload in
its own process.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable table and the run environment.  See README.md.
"""

import os

# One client, one process, one thread: pin BLAS/OpenMP before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import drivers  # noqa: E402
import inputs  # noqa: E402
from layers import BUCKETS, Layers  # noqa: E402

#: per workload: input generator, reads per pass, builds per pass, ℓ
WORKLOADS = {
    "serve-mixed": (inputs.serve_mixed, 800, 3, 16),
    "oneshot-knn": (inputs.oneshot_knn, 100, 3, 64),
    "serve-churn": (inputs.serve_churn, 300, 3, 16),
    "approx-routed": (inputs.approx_routed, 400, 1, 8),
}
#: every pass runs this many times at least, whatever ``--seconds`` says
MIN_PASSES = 2


def tail_percentile(samples: int) -> int | None:
    """Highest of p99/p95/p90 leaving at least 10 of ``samples`` beyond it."""
    for pct in (99, 95, 90):
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def _ms(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct)) * 1e3


class Bench:
    """One workload at one seed: inputs, passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        make, self.per_pass, self.setups, self.l = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inp = make(seed, self.per_pass)
        self.run_pass = (
            drivers.oneshot_pass if workload == "oneshot-knn" else drivers.serve_pass
        )
        # The tail is taken per pass, whose read count is fixed, so the
        # percentile never changes with how many passes fit.
        self.tail_pct = tail_percentile(self.per_pass)
        self.notes: list[str] = []

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports before anything is timed."""
        self.run_pass(self.inp, setups=1, limit=max(8, self.per_pass // 8))

    def check(self, passes: list) -> dict:
        """Verify the first pass; every other pass must repeat it exactly."""
        started = perf_counter()
        checked = drivers.verify(self.inp, passes[0], self.l)
        checked["verify_s"] = perf_counter() - started
        reference = passes[0].signature()
        drifted = sum(1 for p in passes[1:] if p.signature() != reference)
        if checked["wrong"]:
            self.notes.append(f"{checked['wrong']} wrong answers in a pass")
        if drifted:
            self.notes.append(
                f"{drifted} passes of seed {self.seed} differ from the first "
                "(answers, rounds or messages): nondeterminism"
            )
        return checked

    def env(self, passes: int) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "passes": passes,
            "reads_per_pass": self.per_pass,
            "builds_per_pass": self.setups,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
        }

    # -- end-to-end run ----------------------------------------------------
    def end_to_end(self) -> dict:
        self.warm_up()
        passes = []
        started = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - started < self.seconds:
            passes.append(self.run_pass(self.inp, setups=self.setups))
        checked = self.check(passes)
        reads = sum(p.reads for p in passes)
        writes = sum(p.writes for p in passes)
        failed = sum(p.failed for p in passes) + checked["wrong"] * len(passes)
        # Wall times in reference-host seconds: each pass's times divided
        # by how much slower than the reference its probes ran.
        read_lat = [x / p.host_factor for p in passes for x in p.read_lat]
        write_lat = [x / p.host_factor for p in passes for x in p.write_lat]
        first = passes[0]
        metrics = {
            "setup_s": (statistics.median(
                s / p.host_factor for p in passes for s in p.setup_s), "s"),
            "qps": (statistics.median(
                len(p.read_lat) / p.busy_s * p.host_factor for p in passes), "1/s"),
            "latency_p50_ms": (_ms(read_lat, 50), "ms"),
            # median over passes: one pass's tail rides on a few batches,
            # and a host hiccup during any of them moves it
            "latency_tail_ms": (statistics.median(
                _ms(p.read_lat, self.tail_pct) / p.host_factor for p in passes), "ms"),
            "rounds_per_query": (first.rounds / first.reads, "rounds"),
            "messages_per_query": (first.messages / first.reads, "msgs"),
            "recall": (checked["recall"], "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        shown = dict(metrics)
        shown["error_rate"] = (failed / (reads + writes), "ratio")
        write_pct = tail_percentile(len(write_lat))
        if write_lat and write_pct is not None:
            shown["write_p50_ms"] = (_ms(write_lat, 50), "ms")
            shown["write_tail_ms"] = (_ms(write_lat, write_pct), "ms")
        print(f"== {self.workload} seed={self.seed}: {len(passes)} passes, "
              f"{reads} reads, {writes} writes, verify {checked['verify_s']:.3f} s")
        print("  per pass: busy s " + " ".join(f"{p.busy_s:.3f}" for p in passes)
              + " | host factor " + " ".join(f"{p.host_factor:.3f}" for p in passes))
        for name in ("setup_s", "qps", "latency_p50_ms", "latency_tail_ms",
                     "write_p50_ms", "write_tail_ms", "rounds_per_query",
                     "messages_per_query", "error_rate", "recall", "peak_rss_mb"):
            if name not in shown:
                print(f"  {name:<20} n/a (no writes on this workload)")
                continue
            value, unit = shown[name]
            extra = ""
            if name == "latency_tail_ms":
                extra = f"  (median over passes of p{self.tail_pct} of {self.per_pass} reads)"
            elif name == "write_tail_ms":
                extra = f"  (p{write_pct} of {len(write_lat)} writes)"
            elif name == "latency_p50_ms":
                extra = f"  (of {len(read_lat)} reads)"
            print(f"  {name:<20} {value:14.6g} {unit}{extra}")
        for note in self.notes:
            print(f"  FAIL: {note}")
        print("env " + json.dumps(self.env(len(passes))))
        return {
            "correct": not self.notes,
            "attempted": reads + writes,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    # -- traced run ----------------------------------------------------------
    def traced(self, spans_path: Path) -> dict:
        layers = Layers()
        self.warm_up()
        plain, traced = [], []
        waits: list[float] = []
        started = perf_counter()
        # Plain and traced passes alternate; the wrappers are in place
        # only during traced passes, so plain passes run untouched code.
        while len(traced) < MIN_PASSES or perf_counter() - started < self.seconds:
            plain.append(self.run_pass(self.inp, setups=self.setups))
            layers.keep_spans = not traced
            layers.install()
            layers.active = True
            try:
                res = self.run_pass(self.inp, setups=self.setups, tracer=layers)
            finally:
                layers.active = False
                layers.keep_spans = False
                layers.uninstall()
            traced.append(res)
            waits.extend(
                (layers.batch_start[q] - t) / res.host_factor
                for q, t in res.admitted_at.items()
                if q in layers.batch_start
            )
            layers.batch_start.clear()
        checked = self.check(plain + traced)
        missing = layers.missing_calls(self.workload)
        if missing:
            self.notes.append(f"wrapped functions never called: {missing}")
        n = len(traced)
        # per pass, in reference-host seconds (see end_to_end)
        scale = n * statistics.median(p.host_factor for p in traced)
        self_s = {b: layers.self_ns.get(b, 0) / 1e9 / scale for b in BUCKETS}
        wall = sum(p.wall_s for p in traced) / scale
        # wrapper cost taken out of the self times (see layers.py)
        overhead = layers.overhead_ns / 1e9 / scale
        total_messages = sum(layers.ingress.values())
        first = traced[0]
        counters = first.counters
        write_lat = [x / p.host_factor for p in traced for x in p.write_lat]
        write_pct = tail_percentile(len(write_lat))
        metrics = {
            "serve.setup_s": (self_s["serve.setup"], "s"),
            "serve.service.self_s": (self_s["serve.service"], "s"),
            "serve.scheduler_s": (self_s["serve.scheduler"], "s"),
            "serve.cache_s": (self_s["serve.cache"], "s"),
            "serve.cache.hit_rate": (counters.get("hit_rate", 0.0), "ratio"),
            "serve.cache.warm_rate": (counters.get("warm_rate", 0.0), "ratio"),
            "serve.batch.size_mean": (counters.get("batch_size_mean", 0.0), "queries"),
            "serve.batch.count": (counters.get("batch_count", 0), "count"),
            "serve.queue_wait_ms": (
                float(np.median(waits)) * 1e3 if waits else 0.0, "ms"),
            "serve.session.run_batch_s": (self_s["serve.session"], "s"),
            "serve.approx.route_s": (self_s["serve.approx"], "s"),
            "serve.approx.certified_rate": (checked["certified_rate"], "ratio"),
            "kmachine.sim.self_s": (self_s["kmachine.sim"], "s"),
            "kmachine.network.submit_s": (self_s["kmachine.network.submit"], "s"),
            "kmachine.network.submit_calls": (layers.calls["Network.submit"] / n, "count"),
            "kmachine.network.step_s": (self_s["kmachine.network.step"], "s"),
            "kmachine.network.step_calls": (layers.calls["Network.step"] / n, "count"),
            "kmachine.send_s": (self_s["kmachine.send"] + self_s["kmachine.sizing"], "s"),
            "kmachine.recv_s": (self_s["kmachine.recv"], "s"),
            "kmachine.sizing_s": (self_s["kmachine.sizing"], "s"),
            "kmachine.rounds": (first.rounds, "rounds"),
            "kmachine.messages": (first.messages, "msgs"),
            "kmachine.max_link_queue_bits": (counters["max_link_queue_bits"], "bits"),
            "kmachine.leader_ingest_share": (
                max(layers.ingress.values()) / total_messages if total_messages else 0.0,
                "ratio"),
            "core.driver_s": (self_s["core.driver"], "s"),
            "core.program_step_s": (self_s["core.program_step"], "s"),
            "core.local_candidates_s": (self_s["core.local_candidates"], "s"),
            "points.distances_s": (self_s["points.distances"], "s"),
            "points.distances_rows": (layers.distance_rows / n, "rows"),
            "points.distances_bytes": (layers.distance_bytes / n, "bytes"),
            "points.shard_s": (self_s["points.shard"], "s"),
            "points.make_dataset_s": (self_s["points.make_dataset"], "s"),
            "dyn.update_s": (self_s["dyn.update"], "s"),
            "dyn.rebalance_s": (self_s["dyn.rebalance"], "s"),
            "dyn.rebalances": (counters.get("rebalances", 0), "count"),
            "dyn.cache_sync_s": (self_s["dyn.cache_sync"], "s"),
            "dyn.messages_per_update": (counters.get("messages_per_update", 0.0), "msgs"),
            "dyn.write_p50_ms": (_ms(write_lat, 50) if write_lat else 0.0, "ms"),
            "dyn.write_tail_ms": (
                _ms(write_lat, write_pct) if write_pct is not None else 0.0, "ms"),
            "cluster.corpus_s": (self_s["cluster.corpus"], "s"),
            "cluster.messages": (layers.cluster_messages / n, "msgs"),
            "trace.coverage": (sum(self_s.values()) / (wall - overhead), "ratio"),
            "trace.remainder_s": (wall - overhead - sum(self_s.values()), "s"),
            "trace.overhead": (
                statistics.median(p.wall_s / p.host_factor for p in traced)
                / statistics.median(p.wall_s / p.host_factor for p in plain), "ratio"),
            "bench.verify_s": (checked["verify_s"], "s"),
        }
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        kept = layers.write_spans(spans_path, self.env(n))
        by_layer: dict[str, float] = {}
        for bucket, secs in self_s.items():
            layer = bucket.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + secs
        top = max(by_layer, key=by_layer.get)
        print(f"== {self.workload} seed={self.seed} traced: {n} traced + "
              f"{len(plain)} plain passes; self time per pass ({wall:.3f} s wall)")
        for bucket, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
            if secs:
                print(f"  {bucket:<26} {secs:10.4f} s  {100 * secs / wall:5.1f}%")
        print(f"  {'(tracing overhead)':<26} {overhead:10.4f} s"
              f"  ((inner, outer) ns per call, per resume: {layers.costs})")
        print(f"  {'(outside wrapped calls)':<26} "
              f"{wall - overhead - sum(self_s.values()):10.4f} s")
        print(f"  largest layer: {top} ({by_layer[top]:.4f} s per pass)")
        print("  calls per pass: " + json.dumps(
            {k: v // n for k, v in sorted(layers.calls.items())}))
        print(f"  spans: {kept} written to {spans_path}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:14.6g} {unit}")
        for note in self.notes:
            print(f"  FAIL: {note}")
        print("env " + json.dumps(self.env(n)))
        reads = sum(p.reads for p in plain + traced)
        writes = sum(p.writes for p in plain + traced)
        return {
            "correct": not self.notes,
            "attempted": reads + writes,
            "failed": sum(p.failed for p in plain + traced)
            + checked["wrong"] * (len(plain) + n),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bench = Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        result = bench.traced(out)
    else:
        result = bench.end_to_end()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
