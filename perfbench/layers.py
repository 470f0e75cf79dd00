"""Per-layer self time, measured by wrappers the benchmark places itself.

:class:`Layers` replaces each traced public function of the program —
on its class, or in every ``repro`` module global that names it, since
that is where callers look it up — with a wrapper that records a span
while tracing is active.  A span's self time is its duration minus the
spans nested inside it; self times add up per *bucket* (a layer plus a
part of it, such as ``kmachine.send``), so the buckets partition the
traced wall clock with no double counting.  The wrapper's own cost
is measured once (:meth:`Layers._calibrate`) and taken out of the self
times, so they estimate the untraced program; the total taken out is
reported as the tracing overhead.

Generators are timed per resume: the simulator's ``next(gen)`` on a
machine program is one ``*.step`` span, and a resume that lands inside
``MachineContext.recv`` is a ``recv`` span nested in it.  A program
step is billed to the layer that wrote the program — clustering
episodes to ``cluster``, update and rebalance episodes to ``dyn``,
query protocols to ``core``.

Spans are kept in memory while ``keep_spans`` is set and written once,
by :meth:`Layers.write_spans`.  The hottest calls (message send and
receive, sizing, network submit, distance kernels) are timed and
counted but record no span of their own, which keeps a pass's spans
in the tens of thousands.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

import numpy as np

ALL = frozenset({"serve-mixed", "serve-churn", "approx-routed", "oneshot-knn"})
SERVED = ALL - {"oneshot-knn"}
EXACT_SERVED = frozenset({"serve-mixed", "serve-churn"})
CHURN = frozenset({"serve-churn"})
APPROX = frozenset({"approx-routed"})
ONESHOT = frozenset({"oneshot-knn"})
NOWHERE: frozenset = frozenset()

#: (bucket, module, owner class or None for a module function, attribute,
#: workloads that must call it at least once)
TARGETS = [
    ("serve.setup", "repro.serve.service", "KNNService", "__init__", SERVED),
    ("serve.service", "repro.serve.service", "KNNService", "submit", SERVED),
    ("serve.service", "repro.serve.service", "KNNService", "advance", NOWHERE),
    ("serve.service", "repro.serve.service", "KNNService", "flush", SERVED),
    ("serve.service", "repro.serve.service", "KNNService", "drain", SERVED),
    ("serve.service", "repro.serve.service", "KNNService", "insert", CHURN),
    ("serve.service", "repro.serve.service", "KNNService", "delete", CHURN),
    ("serve.scheduler", "repro.serve.scheduler", "AdmissionQueue", "push", SERVED),
    ("serve.scheduler", "repro.serve.scheduler", "MicroBatcher", "ready", SERVED),
    ("serve.scheduler", "repro.serve.scheduler", "MicroBatcher", "select", SERVED),
    ("serve.cache", "repro.serve.cache", "ResultCache", "exact_get", SERVED),
    ("serve.cache", "repro.serve.cache", "ResultCache", "warm_suggest", EXACT_SERVED),
    ("serve.cache", "repro.serve.cache", "ResultCache", "store", EXACT_SERVED),
    ("serve.setup", "repro.serve.session", "ClusterSession", "__init__", SERVED),
    ("serve.session", "repro.serve.session", "ClusterSession", "run_batch", EXACT_SERVED),
    ("serve.session", "repro.serve.session", "ClusterSession", "run_approx_batch", APPROX),
    ("serve.approx", "repro.serve.approx", "RoutingTable", "route", APPROX),
    ("serve.approx", "repro.serve.approx", "RoutingTable", "lower_bounds", APPROX),
    ("serve.approx", "repro.serve.approx", "RoutingTable", "certify", APPROX),
    ("kmachine.sim", "repro.kmachine.simulator", "Simulator", "__init__", ALL),
    ("kmachine.sim", "repro.kmachine.simulator", "Simulator", "run", ALL),
    ("kmachine.sim", "repro.kmachine.simulator", "Simulator", "run_episode", SERVED),
    ("kmachine.network.submit", "repro.kmachine.network", "Network", "submit", ALL),
    ("kmachine.network.step", "repro.kmachine.network", "Network", "step", ALL),
    ("kmachine.send", "repro.kmachine.machine", "MachineContext", "send", ALL),
    ("kmachine.send", "repro.kmachine.machine", "MachineContext", "broadcast", ALL),
    ("kmachine.send", "repro.kmachine.machine", "MachineContext", "send_to_many", NOWHERE),
    ("kmachine.recv", "repro.kmachine.machine", "MachineContext", "recv", ALL),
    ("kmachine.recv", "repro.kmachine.machine", "MachineContext", "take", ALL),
    ("kmachine.sizing", "repro.kmachine.sizing", "SizingPolicy", "measure", ALL),
    ("core.program_step", "repro.kmachine.machine", "Program", "instantiate", ALL),
    ("core.driver", "repro.core.driver", None, "distributed_knn", ONESHOT),
    ("core.local_candidates", "repro.core.knn", None, "local_candidates",
     EXACT_SERVED | ONESHOT),
    ("points.distances", "repro.points.metrics", "EuclideanMetric", "distances", ALL),
    ("points.shard", "repro.points.partition", None, "shard_dataset", ALL),
    ("points.shard", "repro.points.dataset", "Dataset", "take", ALL),
    ("points.make_dataset", "repro.points.dataset", None, "make_dataset", ALL),
    ("dyn.update", "repro.serve.session", "ClusterSession", "insert", CHURN),
    ("dyn.update", "repro.serve.session", "ClusterSession", "delete", CHURN),
    ("dyn.rebalance", "repro.serve.session", "ClusterSession", "rebalance", NOWHERE),
    ("dyn.cache_sync", "repro.dyn.epochs", None, "sync_cache_epoch", CHURN),
    ("cluster.corpus", "repro.serve.session", "ClusterSession", "cluster_corpus", APPROX),
    ("cluster.corpus", "repro.cluster.sharding", None, "locality_assignment", APPROX),
]

CALL, RESUME = 0, 1

#: wrapped functions that return generators: time each resume instead
#: (``recv_one`` is not wrapped: it delegates every resume to ``recv``)
GENERATORS = {"recv", "instantiate"}

#: hot, tiny calls: timed and counted, but recorded as no span of their own
UNSPANNED = frozenset({
    "kmachine.network.submit", "kmachine.send", "kmachine.recv",
    "kmachine.sizing", "points.distances",
})

BUCKETS = sorted({t[0] for t in TARGETS} | {"dyn.update", "dyn.rebalance"})


def _program_bucket(program: Any) -> str:
    """The layer that owns a machine program's step time."""
    cls = type(program)
    if cls.__module__.startswith("repro.cluster"):
        return "cluster.corpus"
    if cls.__name__ == "UpdateProgram":
        return "dyn.update"
    if cls.__module__.startswith("repro.dyn"):
        return "dyn.rebalance"
    return "core.program_step"


class Layers:
    """Installs the wrappers and accumulates self time, calls and spans."""

    def __init__(self) -> None:
        self.active = False
        self.keep_spans = False
        #: the client op a span belongs to (the qid of the admitted read)
        self.op: int | None = None
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.distance_rows = 0
        self.distance_bytes = 0
        self.cluster_messages = 0
        #: messages submitted to the network per destination rank
        self.ingress: Counter = Counter()
        #: qid -> wall time the batch that served it started
        self.batch_start: dict[int, float] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []
        #: (inner, outer) wrapper cost in ns for a call and for a resume
        self.costs: list[tuple[int, int]] = []
        #: estimated wrapper cost taken out of the self times so far
        self.overhead_ns = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------
    def _enter(self, bucket: str, name: str, record: bool, kind: int) -> list:
        self.calls[name] += 1
        stack = self._stack
        # the nearest enclosing recorded span (unrecorded frames pass it on)
        parent = stack[-1][5] if stack else -1
        index = -1
        if record and self.keep_spans:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.op])
        frame = [bucket, 0, 0, index, kind, index if index >= 0 else parent]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        inner, outer = self.costs[frame[4]]
        self.self_ns[frame[0]] += duration - frame[2] - inner
        self.overhead_ns += inner
        if stack:
            # The wrapper's work outside this call's own clock readings
            # would otherwise land in the parent's self time.
            stack[-1][2] += duration + outer
            self.overhead_ns += outer
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span[1], span[2] = frame[1], end

    # -- wrappers --------------------------------------------------------
    def _call(self, fn: Callable, bucket: str, name: str) -> Callable:
        layers = self
        record = bucket not in UNSPANNED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not layers.active:
                return fn(*args, **kwargs)
            frame = layers._enter(bucket, name, record, CALL)
            try:
                return fn(*args, **kwargs)
            finally:
                layers._exit(frame)

        return wrapper

    def _resumes(self, gen, bucket: str, name: str):
        record = bucket not in UNSPANNED
        while True:
            frame = self._enter(bucket, name, record, RESUME)
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit(frame)
            yield

    def _calibrate(self, n: int = 20000) -> list[tuple[int, int]]:
        """Wrapper cost per call and per resume, as ``(inner, outer)`` ns.

        ``inner`` is what a wrapped no-op adds inside its own clock
        readings, ``outer`` what it adds around them (billed to the
        parent).  Each is the minimum over three trials.
        """
        def noop():
            return None

        def ticks():
            for _ in range(n):
                yield

        def drive(it):
            for _ in range(n):
                next(it)

        wrapped = self._call(noop, "_probe", "_probe")
        self.active, self.costs = True, [(0, 0), (0, 0)]
        costs = []
        for kind in (CALL, RESUME):
            best_inner = best_outer = None
            for _ in range(3):
                started = perf_counter_ns()
                for _ in range(n):
                    pass
                loop = perf_counter_ns() - started
                started = perf_counter_ns()
                if kind == CALL:
                    for _ in range(n):
                        noop()
                else:
                    drive(ticks())
                raw = perf_counter_ns() - started
                outer = self._enter("_outer", "_outer", False, CALL)
                if kind == CALL:
                    for _ in range(n):
                        wrapped()
                else:
                    drive(self._resumes(ticks(), "_probe", "_probe"))
                self._exit(outer)
                inner = (self.self_ns.pop("_probe") - raw) // n
                outside = (self.self_ns.pop("_outer") - loop) // n
                best_inner = inner if best_inner is None else min(best_inner, inner)
                best_outer = outside if best_outer is None else min(best_outer, outside)
            costs.append((max(0, best_inner), max(0, best_outer)))
        self.calls.pop("_probe", None)
        self.calls.pop("_outer", None)
        self.active, self.overhead_ns = False, 0
        return costs

    def _generator(self, fn: Callable, bucket: str, name: str) -> Callable:
        layers = self
        per_program = name == "Program.instantiate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not layers.active:
                return gen
            if per_program:
                program = args[0]
                return layers._resumes(
                    gen, _program_bucket(program), f"{type(program).__name__}.step"
                )
            return layers._resumes(gen, bucket, name)

        return wrapper

    def _wrap(self, fn: Callable, bucket: str, name: str, attr: str) -> Callable:
        if attr in GENERATORS:
            return self._generator(fn, bucket, name)
        wrapper = self._call(fn, bucket, name)
        layers = self
        if attr == "distances":
            @functools.wraps(fn)
            def counted(metric, points, *args, **kwargs):
                if layers.active:
                    shape = np.shape(points)
                    rows = shape[0]
                    layers.distance_rows += rows
                    layers.distance_bytes += rows * (shape[1] if len(shape) > 1 else 1) * 8
                return wrapper(metric, points, *args, **kwargs)
            return counted
        if attr == "submit" and name == "Network.submit":
            @functools.wraps(fn)
            def routed(network, msg):
                if layers.active:
                    layers.ingress[msg.dst] += 1
                return wrapper(network, msg)
            return routed
        if attr in ("run_batch", "run_approx_batch"):
            @functools.wraps(fn)
            def batched(session, jobs, *args, **kwargs):
                if layers.active:
                    now = perf_counter()
                    for job in jobs:
                        layers.batch_start.setdefault(job.qid, now)
                return wrapper(session, jobs, *args, **kwargs)
            return batched
        if attr == "cluster_corpus":
            @functools.wraps(fn)
            def clustered(session, *args, **kwargs):
                before = session.metrics.messages
                try:
                    return wrapper(session, *args, **kwargs)
                finally:
                    if layers.active:
                        layers.cluster_messages += session.metrics.messages - before
            return clustered
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Put every wrapper in place (idempotent per instance)."""
        if self._undo:
            return
        if not self.costs:
            self.costs = self._calibrate()
        for bucket, module_name, owner_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                name = f"{owner_name}.{attr}"
                self._patch(owner, attr, self._wrap(original, bucket, name, attr))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, bucket, attr, attr)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                    getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------
    def missing_calls(self, workload: str) -> list[str]:
        """Targets this workload must exercise that were never called."""
        missing = []
        for _, _, owner, attr, expected in TARGETS:
            name = attr if owner is None else f"{owner}.{attr}"
            if attr == "instantiate":
                called = any(n.endswith(".step") for n in self.calls)
            else:
                called = self.calls[name] > 0
            if workload in expected and not called:
                missing.append(name)
        return missing

    def write_spans(self, path, meta: dict) -> int:
        """Write the kept spans as one JSON document; returns how many."""
        names: dict[str, int] = {}
        origin = min((s[1] for s in self.spans), default=0)
        rows = [
            [names.setdefault(n, len(names)), start - origin, end - origin, parent, op]
            for n, start, end, parent, op in self.spans
        ]
        doc = {
            **meta,
            "columns": ["name", "start_ns", "end_ns", "parent", "query_id"],
            "names": list(names),
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(rows)
