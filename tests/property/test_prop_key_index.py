"""Property tests: the selection loops' bisect ``KeyIndex`` is a drop-in.

Every answer of :class:`repro.core.selection.KeyIndex` is compared with
the NumPy reference it replaces on sorted ``(value, id)`` keys drawn
with heavy value ties, empty key sets, ±inf sentinel and NaN bounds: ranks
against :func:`_rank_leq`, and pivot draws against a NumPy
``searchsorted`` implementation run on an identically seeded RNG, which
must return the same key and leave the RNG in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.selection import KeyIndex, _rank_leq
from repro.points.ids import MINUS_INF_KEY, PLUS_INF_KEY, Keyed, keyed_array


def _reference_uniform_in_range(
    keys: np.ndarray, lo: Keyed, hi: Keyed, rng: np.random.Generator
) -> Keyed:
    """The NumPy pivot draw: a uniform random key in ``(lo, hi]``."""
    start = _rank_leq(keys, lo)
    stop = _rank_leq(keys, hi)
    if stop <= start:
        raise ValueError("no points in range; leader accounting is wrong")
    idx = start + int(rng.integers(0, stop - start))
    block = keys[start:stop]
    row = block[idx - start]
    return Keyed(float(row["value"]), int(row["id"]))


# A tiny value pool forces long tie blocks; wide floats exercise the
# plain bisect path.
values_st = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def sorted_keys(draw):
    values = draw(st.lists(values_st, min_size=0, max_size=40))
    ids = draw(
        st.lists(
            st.integers(min_value=1, max_value=2**40),
            min_size=len(values), max_size=len(values), unique=True,
        )
    )
    return keyed_array(values, ids)  # sorted by (value, id)


@st.composite
def bounds(draw, keys):
    """A bound near the keys: a key, a neighbour id, a sentinel, or free."""
    choices = [
        st.just(MINUS_INF_KEY),
        st.just(PLUS_INF_KEY),
        st.builds(Keyed, st.just(np.inf), st.integers(0, 2**62)),
        st.builds(Keyed, st.just(-np.inf), st.integers(0, 2**62)),
        st.builds(Keyed, st.just(np.nan), st.integers(0, 2**62)),
        st.builds(Keyed, values_st, st.integers(0, 2**41)),
    ]
    if len(keys):
        row = st.sampled_from(keys.tolist())
        choices.append(row.map(lambda pair: Keyed(*pair)))
        choices.append(
            st.tuples(row, st.integers(-2, 2)).map(lambda t: Keyed(t[0][0], t[0][1] + t[1]))
        )
    return draw(st.one_of(choices))


@given(data=st.data())
def test_rank_count_and_prefix_match_numpy(data):
    keys = data.draw(sorted_keys())
    index = KeyIndex(keys)
    lo = data.draw(bounds(keys))
    hi = data.draw(bounds(keys))
    assert index.rank_leq(lo) == _rank_leq(keys, lo)
    assert index.rank_leq(hi) == _rank_leq(keys, hi)
    assert index.count_in(lo, hi) == _rank_leq(keys, hi) - _rank_leq(keys, lo)
    assert index.prefix(hi).tolist() == keys[: _rank_leq(keys, hi)].tolist()


@st.composite
def rank_ranges(draw, keys):
    """``(lo, hi]`` holding exactly the keys of a small rank window."""
    start = draw(st.integers(0, len(keys)))
    stop = draw(st.integers(start, min(len(keys), start + 2)))
    lo = Keyed(*keys[start - 1].tolist()) if start else MINUS_INF_KEY
    hi = Keyed(*keys[stop - 1].tolist()) if stop else MINUS_INF_KEY
    return lo, hi


@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
def test_pivot_draw_matches_numpy_reference(data, seed):
    keys = data.draw(sorted_keys())
    if data.draw(st.booleans()):
        lo, hi = data.draw(rank_ranges(keys))
    else:
        lo, hi = data.draw(bounds(keys)), data.draw(bounds(keys))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = _reference_uniform_in_range(keys, lo, hi, theirs)
    except ValueError:
        with pytest.raises(ValueError):
            KeyIndex(keys).uniform_in_range(lo, hi, ours)
    else:
        got = KeyIndex(keys).uniform_in_range(lo, hi, ours)
        assert got == expected
        assert type(got.value) is float and type(got.id) is int
    # Same number of draws taken: the streams stay in lockstep.
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


@given(keys=sorted_keys())
def test_extremes_are_first_and_last_keys(keys):
    n, first, last = KeyIndex(keys).extremes()
    assert n == len(keys)
    if n == 0:
        assert (first, last) == (PLUS_INF_KEY, MINUS_INF_KEY)
    else:
        assert first == Keyed(*keys[0].tolist())
        assert last == Keyed(*keys[-1].tolist())


def test_tie_block_and_sentinels():
    keys = keyed_array([1.0, 1.0, 1.0, 2.0], [5, 2, 9, 1])
    index = KeyIndex(keys)
    assert index.rank_leq(Keyed(1.0, 5)) == 2  # ids 2 and 5
    assert index.count_in(Keyed(1.0, 2), Keyed(2.0, 0)) == 2  # ids 5 and 9
    assert index.rank_leq(Keyed(np.inf, 0)) == 4
    assert index.rank_leq(Keyed(-np.inf, 2**62)) == 0
    assert KeyIndex(keyed_array([], [])).rank_leq(PLUS_INF_KEY) == 0
