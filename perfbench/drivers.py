"""One pass of a workload through the public API, timed call by call.

A pass builds the service (or dataset) ``setups`` times — the last
build serves the pass — then issues every op in a closed loop: the
next call starts as soon as the previous one returns.  Only the calls
into the program are timed; polling, mirror upkeep and verification
happen between them.

Read latency runs from the start of the call that admitted a query to
the end of the call after which ``poll(qid)`` first returns its answer,
so a read flushed by a write carries that write's time.
"""

from __future__ import annotations

import gc
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from inputs import INSERT, READ, OneshotInputs, ServeInputs
import repro.core.driver as core_driver
import repro.points.dataset as points_dataset
from repro.points.dataset import Shard
from repro.points.metrics import get_metric
from repro.sequential.brute import brute_force_knn_ids
from repro.serve import KNNService, QueueFullError


#: :func:`probe` on an unloaded 2-vCPU cloud VM (Python 3.11, numpy 2.4):
#: the reference host whose seconds the normalised times are in
PROBE_REFERENCE_S = 4.5e-4
_PROBE_VALUES = np.random.default_rng(0).uniform(0.0, 1.0, 2048)


def probe() -> float:
    """Seconds a fixed burst of small numpy calls takes right now.

    The program spends its time in many small numpy calls and the Python
    around them; this burst does the same kind of work (partial sort,
    fancy index, sum over a few thousand floats) and touches nothing of
    the program under test, so its time moves only with the host's
    speed.  Of the probes tried it tracked pass-to-pass wall time on
    identical work most closely.
    """
    started = perf_counter()
    for _ in range(30):
        nearest = np.argpartition(_PROBE_VALUES, 16)[:16]
        _PROBE_VALUES[nearest].sum()
    return perf_counter() - started


@dataclass
class PassResult:
    """Everything one pass measured, counted and answered."""

    setup_s: list[float] = field(default_factory=list)
    #: wall time spent inside calls into the program (setup excluded)
    busy_s: float = 0.0
    #: wall time of the whole pass, setup included
    wall_s: float = 0.0
    read_lat: list[float] = field(default_factory=list)
    write_lat: list[float] = field(default_factory=list)
    #: read wall-clock admission time per qid (queue-wait tracing)
    admitted_at: dict[int, float] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    failed: int = 0
    rounds: int = 0
    messages: int = 0
    #: qid -> (answer ids, certified flag)
    answers: dict[int, tuple[np.ndarray, bool | None]] = field(default_factory=dict)
    #: qid -> (op index, data epoch the query was submitted in)
    asked: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: (points, ids) of the live set before the first write
    initial: tuple[np.ndarray, np.ndarray] | None = None
    #: every applied write as (kind, point, id); epoch e follows the first e
    write_log: list[tuple[int, np.ndarray, int]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: :func:`probe` times taken between the calls of this pass
    probes: list[float] = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """How much slower than the reference host this pass ran (>1: slower)."""
        return statistics.median(self.probes) / PROBE_REFERENCE_S

    def signature(self) -> tuple:
        """What two passes over the same seed must agree on exactly."""
        return (
            self.rounds,
            self.messages,
            self.failed,
            tuple(
                (qid, ids.tobytes(), cert)
                for qid, (ids, cert) in sorted(self.answers.items())
            ),
        )


def _report_failure(op: str) -> None:
    print(f"perfbench: {op} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def serve_pass(
    inp: ServeInputs, *, setups: int, limit: int | None = None, tracer=None
) -> PassResult:
    """Drive ``inp``'s op stream (its first ``limit`` ops) through ``KNNService``."""
    res = PassResult()
    started = perf_counter()
    svc = None
    for _ in range(setups):
        if svc is not None:
            svc.close()
        gc.collect()
        res.probes.append(probe())
        t0 = perf_counter()
        svc = KNNService(inp.corpus, **inp.service)
        res.setup_s.append(perf_counter() - t0)
    live_ids = svc.session.dataset.ids.copy()
    res.initial = (inp.corpus, live_ids)
    outstanding: dict[int, float] = {}
    poll = svc.poll
    kinds, points, times, draws = inp.kinds, inp.points, inp.times, inp.draws
    n_ops = len(kinds) if limit is None else min(limit, len(kinds))
    next_qid = 0
    for j in range(n_ops):
        if j % 16 == 0:
            res.probes.append(probe())
        kind = kinds[j]
        if kind == READ:
            res.reads += 1
            if tracer is not None:
                tracer.op = next_qid
            t0 = perf_counter()
            try:
                qid = svc.submit(points[j], at=float(times[j]))
            except QueueFullError:
                res.failed += 1
                qid = None
            except Exception:
                _report_failure("submit")
                res.failed += 1
                qid = None
            t1 = perf_counter()
            next_qid += 1
            if qid is not None:
                outstanding[qid] = t0
                res.admitted_at[qid] = t0
                res.asked[qid] = (j, len(res.write_log))
        else:
            res.writes += 1
            if tracer is not None:
                tracer.op = None
            victim = int(live_ids[int(draws[j] * len(live_ids))])
            t0 = perf_counter()
            try:
                if kind == INSERT:
                    new_ids = svc.insert(points[j])
                else:
                    svc.delete([victim])
            except Exception:
                _report_failure("insert" if kind == INSERT else "delete")
                res.failed += 1
                t1 = perf_counter()
                res.busy_s += t1 - t0
                continue
            t1 = perf_counter()
            res.write_lat.append(t1 - t0)
            if kind == INSERT:
                victim = int(new_ids[0])
                live_ids = np.append(live_ids, victim)
            else:
                live_ids = live_ids[live_ids != victim]
            res.write_log.append((kind, points[j], victim))
        res.busy_s += t1 - t0
        if outstanding:
            for qid in [q for q in outstanding if poll(q) is not None]:
                res.read_lat.append(t1 - outstanding.pop(qid))
    if tracer is not None:
        tracer.op = None
    t0 = perf_counter()
    svc.drain()
    t1 = perf_counter()
    res.busy_s += t1 - t0
    for qid in outstanding:
        res.read_lat.append(t1 - outstanding[qid])
    res.wall_s = perf_counter() - started
    for qid in res.asked:
        answer = poll(qid)
        res.answers[qid] = (answer.ids.copy(), answer.certified)
    session = svc.session
    res.rounds = session.metrics.rounds
    res.messages = session.metrics.messages
    updates = [m.messages for m in session.mutations if m.kind == "update"]
    res.counters = {
        "hit_rate": svc.stats.cache_hit_rate,
        "warm_rate": svc.stats.warm_start_rate,
        "batch_size_mean": svc.stats.mean_batch_size(),
        "batch_count": session.batches,
        "max_link_queue_bits": session.metrics.max_link_queue_bits,
        "messages_per_update": float(np.mean(updates)) if updates else 0.0,
        "rebalances": sum(1 for m in session.mutations if m.kind == "rebalance"),
    }
    svc.close()
    return res


def oneshot_pass(
    inp: OneshotInputs, *, setups: int, limit: int | None = None, tracer=None
) -> PassResult:
    """Independent ``distributed_knn`` calls on a prepared ``Dataset``."""
    res = PassResult()
    started = perf_counter()
    for _ in range(setups):
        gc.collect()
        res.probes.append(probe())
        t0 = perf_counter()
        dataset = points_dataset.make_dataset(inp.corpus, seed=inp.seed)
        res.setup_s.append(perf_counter() - t0)
    res.initial = (dataset.points, dataset.ids)
    queries = inp.queries if limit is None else inp.queries[:limit]
    max_queue = 0
    for i, query in enumerate(queries):
        res.reads += 1
        if tracer is not None:
            tracer.op = i
        res.probes.append(probe())
        t0 = perf_counter()
        try:
            result = core_driver.distributed_knn(
                dataset, query, inp.l, inp.k, seed=inp.seed + i
            )
        except Exception:
            _report_failure("distributed_knn")
            res.failed += 1
            res.busy_s += perf_counter() - t0
            continue
        t1 = perf_counter()
        res.busy_s += t1 - t0
        res.read_lat.append(t1 - t0)
        res.asked[i] = (i, 0)
        res.answers[i] = (result.ids, None)
        res.rounds += result.metrics.rounds
        res.messages += result.metrics.messages
        max_queue = max(max_queue, result.metrics.max_link_queue_bits)
    if tracer is not None:
        tracer.op = None
    res.wall_s = perf_counter() - started
    res.counters = {"max_link_queue_bits": max_queue}
    return res


def verify(inp: ServeInputs | OneshotInputs, res: PassResult, l: int) -> dict:
    """Brute-force every answer against the live set of its epoch.

    Exact answers (and approximate answers flagged ``certified``) must
    equal the oracle's id set; every answer contributes its recall.
    """
    queries = inp.points if isinstance(inp, ServeInputs) else inp.queries
    euclidean = get_metric("euclidean")
    pts, live = res.initial
    applied = 0
    truths: dict[tuple[bytes, int], set[int]] = {}
    wrong, recalls, certified = 0, [], []
    # Answers in epoch order, replaying the write log to each epoch.
    for qid in sorted(res.answers, key=lambda q: res.asked[q][1]):
        ids, cert = res.answers[qid]
        op, epoch = res.asked[qid]
        for kind, point, pid in res.write_log[applied:epoch]:
            if kind == INSERT:
                pts = np.concatenate([pts, point[None, :]])
                live = np.append(live, pid)
            else:
                keep = live != pid
                pts, live = pts[keep], live[keep]
        applied = max(applied, epoch)
        query = queries[op]
        key = (query.tobytes(), epoch)
        if key not in truths:
            # The oracle decides on every point within (a hair above)
            # the ℓ-th smallest distance: a superset of the true ℓ-NN,
            # so its answer equals the answer over the whole live set.
            dist = euclidean.distances(pts, query)
            cut = np.partition(dist, l - 1)[l - 1] * (1 + 1e-9)
            near = dist <= cut
            truths[key] = brute_force_knn_ids(
                Shard(points=pts[near], ids=live[near]), query, l
            )
        truth = truths[key]
        got = {int(i) for i in ids}
        recalls.append(len(got & truth) / l)
        if cert is not None:
            certified.append(bool(cert))
        if (cert is None or cert) and got != truth:
            wrong += 1
    return {
        "wrong": wrong,
        "recall": float(np.mean(recalls)) if recalls else 0.0,
        "certified_rate": float(np.mean(certified)) if certified else 0.0,
    }
