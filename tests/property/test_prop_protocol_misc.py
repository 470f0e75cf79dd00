"""Property-based tests across protocol machinery.

Random k / roots / payload shapes for the collectives and elections;
sizing-policy structural properties; slack-selection invariants.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leader import elect
from repro.core.selection import SelectionProgram
from repro.kmachine import (
    FunctionProgram,
    SizingPolicy,
    Simulator,
    run_program,
    tree_reduce,
)
from repro.points.ids import keyed_array

payloads = st.recursive(
    st.one_of(
        st.integers(-1000, 1000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


class TestSizingProperties:
    @given(payloads)
    def test_measure_is_non_negative_and_deterministic(self, payload):
        policy = SizingPolicy()
        a = policy.measure(payload)
        b = policy.measure(payload)
        assert a == b >= 0

    @given(payloads, payloads)
    def test_tuple_measure_is_additive(self, a, b):
        policy = SizingPolicy()
        assert policy.measure((a, b)) == policy.measure(a) + policy.measure(b)

    @given(payloads, st.integers(8, 128))
    def test_word_bits_scales_scalars_only(self, payload, word_bits):
        wide = SizingPolicy(word_bits=word_bits).measure(payload)
        narrow = SizingPolicy(word_bits=8).measure(payload)
        assert wide >= narrow


class TestTreeCollectiveProperties:
    @given(st.integers(1, 24), st.integers(0, 23), st.integers(0, 2**16))
    @settings(max_examples=25)
    def test_reduce_equals_python_sum(self, k, root, seed):
        root = root % k
        rng = np.random.default_rng(seed)
        values = [int(v) for v in rng.integers(-50, 50, k)]

        def prog(ctx):
            return (
                yield from tree_reduce(ctx, root, "tr", values[ctx.rank],
                                       lambda a, b: a + b)
            )

        result = run_program(FunctionProgram(prog), k=k)
        assert result.outputs[root] == sum(values)


class TestElectionProperties:
    @given(st.integers(2, 20), st.sampled_from(["min_id", "sublinear"]),
           st.integers(0, 2**16))
    @settings(max_examples=25)
    def test_agreement_and_validity(self, k, method, seed):
        def prog(ctx):
            return (yield from elect(ctx, method=method))

        result = run_program(FunctionProgram(prog), k=k, seed=seed)
        leaders = set(result.outputs)
        assert len(leaders) == 1
        assert 0 <= leaders.pop() < k


class TestSlackSelectionProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.integers(0, 50),
        st.floats(0, 3),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25)
    def test_superset_prefix_and_budget(self, values, l, slack, seed):
        l = min(l, len(values))
        arr = np.asarray(values, dtype=np.float64)
        ids = np.arange(1, len(arr) + 1)
        k = min(4, len(arr))
        rng = np.random.default_rng(seed)
        chunks = np.array_split(rng.permutation(len(arr)), k)
        inputs = [keyed_array(arr[c], ids[c]) for c in chunks]
        sim = Simulator(k=k, program=SelectionProgram(l, slack=slack),
                        inputs=inputs, seed=seed, bandwidth_bits=512)
        res = sim.run()
        selected = sorted(
            (float(v), int(i))
            for o in res.outputs
            for v, i in zip(o.selected["value"], o.selected["id"])
        )
        truth = sorted(zip(arr.tolist(), ids.tolist()))
        # Always a prefix of the global order...
        assert selected == truth[: len(selected)]
        # ...covering the true l smallest, within the slack budget.
        assert len(selected) >= min(l, len(arr))
        assert len(selected) <= min(len(arr), int(np.ceil(l * (1 + slack))) + 1)
