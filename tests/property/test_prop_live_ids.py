"""Property test: the write path's live-id checks agree with set algebra.

``Dataset.add`` and ``Shard.add_points`` must refuse a batch exactly when
it shares an id with the target (``np.intersect1d`` non-empty), and
``ClusterSession.delete`` must raise ``KeyError`` exactly when a requested
id is not live, naming the same missing ids (sorted, at most eight).
Batch sizes straddle ``np.isin``'s switch from its equality-scan path to
its sort path (about 40 ids at n = 16,000), so both paths are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.points.dataset import Dataset, Shard
from repro.points.ids import draw_unique_ids
from repro.serve.session import ClusterSession

BATCH_SIZES = st.one_of(
    st.sampled_from([1, 40, 41, 200]), st.integers(min_value=1, max_value=300)
)


@st.composite
def live_and_batch(draw):
    """A live id set, a distinct batch, and how many batch ids are live."""
    n = draw(st.integers(min_value=1, max_value=20_000))
    size = draw(BATCH_SIZES)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    planted = draw(st.integers(min_value=0, max_value=min(size, n)))
    rng = np.random.default_rng(seed)
    pool = draw_unique_ids(rng, n + size, n_total=n + size)
    live, fresh = pool[:n], pool[n:]
    batch = np.concatenate(
        [rng.choice(live, size=planted, replace=False), fresh[: size - planted]]
    )
    rng.shuffle(batch)
    return live, batch, planted


@given(case=live_and_batch(), target=st.sampled_from(["dataset", "shard"]))
@settings(max_examples=60, deadline=None)
def test_add_refuses_exactly_the_colliding_batches(case, target: str) -> None:
    live, batch, planted = case
    if target == "dataset":
        holder = Dataset(points=np.zeros((len(live), 1)), ids=live)
        add = holder.add
    else:
        holder = Shard(points=np.zeros((len(live), 1)), ids=live)
        add = holder.add_points
    collides = np.intersect1d(live, batch).size > 0
    assert collides == (planted > 0)
    if collides:
        with pytest.raises(ValueError, match="collide"):
            add(np.ones((len(batch), 1)), batch)
        assert len(holder) == len(live)
    else:
        add(np.ones((len(batch), 1)), batch)
        assert len(holder) == len(live) + len(batch)


@given(
    n=st.integers(min_value=8, max_value=20_000),
    size=BATCH_SIZES,
    dead=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_delete_raises_exactly_on_dead_ids(
    n: int, size: int, dead: int, seed: int
) -> None:
    rng = np.random.default_rng(seed)
    session = ClusterSession(rng.uniform(0, 1, (n, 1)), 2, 4, seed=seed)
    live = session.dataset.ids.copy()
    picked = rng.choice(live, size=min(size, n - 2), replace=False)
    ghosts = rng.integers(1, 2**40, size=dead, dtype=np.int64)
    request = np.concatenate([picked, ghosts, picked[:3]])  # with repeats
    missing = np.setdiff1d(request, live)
    messages = session.metrics.messages
    if missing.size:
        with pytest.raises(KeyError) as err:
            session.delete(request)
        assert err.value.args[0] == f"ids not live: {missing[:8].tolist()}"
        assert session.metrics.messages == messages
        assert len(session.dataset) == n
    else:
        assert session.delete(request) == len(np.unique(request))
        assert np.intersect1d(session.dataset.ids, request).size == 0
        assert len(session.dataset) == n - len(np.unique(request))
