"""Tests for the multiprocessing backend (real OS processes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.knn import KNNProgram
from repro.core.selection import SelectionProgram
from repro.core.simple import SimpleKNNProgram
from repro.kmachine import FunctionProgram, ProtocolError, Simulator
from repro.points.generators import gaussian_blobs
from repro.points.ids import keyed_array
from repro.points.partition import shard_dataset
from repro.runtime.multiprocess import MultiprocessSimulator
from repro.sequential.brute import brute_force_knn_ids


def echo(ctx):
    if ctx.rank == 0:
        ctx.broadcast("hi", ctx.rank)
        yield
        msgs = yield from ctx.recv("re", ctx.k - 1)
        return sorted(m.payload for m in msgs)
    msg = yield from ctx.recv_one("hi")
    ctx.send(0, "re", ctx.rank * 10)
    yield
    return msg.payload


class TestBasics:
    def test_echo_protocol(self):
        res = MultiprocessSimulator(3, FunctionProgram(echo), seed=1).run()
        assert res.outputs[0] == [10, 20]
        assert res.outputs[1] == res.outputs[2] == 0
        assert res.messages == 4

    def test_inputs_distributed(self):
        def prog(ctx):
            return ctx.local * 2
            yield

        res = MultiprocessSimulator(3, FunctionProgram(prog), inputs=[1, 2, 3]).run()
        assert res.outputs == [2, 4, 6]

    def test_callable_inputs(self):
        def prog(ctx):
            return ctx.local
            yield

        res = MultiprocessSimulator(2, FunctionProgram(prog), inputs=lambda r: r).run()
        assert res.outputs == [0, 1]

    def test_worker_exception_propagates(self):
        def boom(ctx):
            yield
            raise RuntimeError("worker exploded")

        with pytest.raises(ProtocolError, match="exploded"):
            MultiprocessSimulator(2, FunctionProgram(boom)).run()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            MultiprocessSimulator(0, FunctionProgram(echo))

    def test_wall_seconds_positive(self):
        res = MultiprocessSimulator(2, FunctionProgram(echo), seed=2).run()
        assert res.wall_seconds > 0


class TestProtocolParity:
    """The same programs must give the same answers as the simulator."""

    def test_selection_parity(self, rng):
        n, k, l = 400, 4, 37
        values = rng.uniform(0, 100, n)
        ids = np.arange(1, n + 1)
        chunks = np.array_split(rng.permutation(n), k)
        inputs = [keyed_array(values[c], ids[c]) for c in chunks]

        sim = Simulator(k, SelectionProgram(l), inputs, seed=9,
                        bandwidth_bits=None).run()
        mp = MultiprocessSimulator(k, SelectionProgram(l), inputs, seed=9).run()
        sim_ids = sorted(int(i) for o in sim.outputs for i in o.selected["id"])
        mp_ids = sorted(int(i) for o in mp.outputs for i in o.selected["id"])
        assert sim_ids == mp_ids

    def test_knn_matches_brute_force(self, rng):
        ds = gaussian_blobs(rng, 2000, 3)
        q = rng.uniform(0, 1, 3)
        shards = shard_dataset(ds, 4, rng)
        res = MultiprocessSimulator(4, KNNProgram(q, 25, safe_mode=True), shards,
                                    seed=5).run()
        got = set(int(i) for o in res.outputs for i in o.ids)
        assert got == brute_force_knn_ids(ds, q, 25)

    def test_simple_matches_brute_force(self, rng):
        ds = gaussian_blobs(rng, 1000, 2)
        q = rng.uniform(0, 1, 2)
        shards = shard_dataset(ds, 4, rng)
        res = MultiprocessSimulator(4, SimpleKNNProgram(q, 11), shards, seed=6).run()
        got = set(int(i) for o in res.outputs for i in o.ids)
        assert got == brute_force_knn_ids(ds, q, 11)

    def test_same_seed_same_protocol_randomness(self, rng):
        """Pivot choices match the in-process simulator seed-for-seed."""
        n, k, l = 300, 4, 50
        values = rng.uniform(0, 100, n)
        ids = np.arange(1, n + 1)
        chunks = np.array_split(rng.permutation(n), k)
        inputs = [keyed_array(values[c], ids[c]) for c in chunks]
        sim = Simulator(k, SelectionProgram(l), inputs, seed=33,
                        bandwidth_bits=None).run()
        mp = MultiprocessSimulator(k, SelectionProgram(l), inputs, seed=33).run()
        sim_stats = next(o.stats for o in sim.outputs if o.is_leader)
        mp_stats = next(o.stats for o in mp.outputs if o.is_leader)
        assert [p.as_tuple() for p, _, _ in sim_stats.pivot_history] == [
            p.as_tuple() for p, _, _ in mp_stats.pivot_history
        ]


class TestWorkerSpans:
    """Phase spans gathered from real worker processes."""

    def _inputs(self, rng, n=120, k=4):
        values = rng.uniform(0, 100, n)
        ids = np.arange(1, n + 1)
        chunks = np.array_split(rng.permutation(n), k)
        return [keyed_array(values[c], ids[c]) for c in chunks]

    def test_spans_off_by_default(self, rng):
        res = MultiprocessSimulator(
            4, SelectionProgram(10), self._inputs(rng), seed=11
        ).run()
        assert res.spans == []

    def test_spans_gathered_from_all_workers(self, rng):
        res = MultiprocessSimulator(
            4, SelectionProgram(10), self._inputs(rng), seed=11, observe="spans"
        ).run()
        assert {s.machine for s in res.spans} == {0, 1, 2, 3}
        assert all(s.closed for s in res.spans)
        # Sorted by (machine, per-worker index): stable to assert on.
        assert [(s.machine, s.index) for s in res.spans] == sorted(
            (s.machine, s.index) for s in res.spans
        )
        leader_names = [s.name for s in res.spans if s.machine == 0]
        assert leader_names[0] == "election"
        assert {"sel/init", "sel/iterate", "sel/finish"} <= set(leader_names)
        worker_names = {s.name for s in res.spans if s.machine != 0}
        assert worker_names == {"election", "sel/serve"}

    def test_worker_spans_count_own_traffic_only(self, rng):
        """Span deltas are per-machine process-side, not global."""
        res = MultiprocessSimulator(
            4, SelectionProgram(10), self._inputs(rng), seed=11, observe="spans"
        ).run()
        per_machine = {}
        for s in res.spans:
            if s.depth == 0:
                per_machine[s.machine] = per_machine.get(s.machine, 0) + s.messages
        # Each machine's top-level spans cover at most what it sent;
        # together they cover at most (and here exactly) the run total.
        assert sum(per_machine.values()) <= res.messages
        assert all(v >= 0 for v in per_machine.values())
