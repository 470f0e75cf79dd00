"""Property: every machine's answer rows are the dataset rows of its ids.

Each protocol selects its answer among the machine's local candidates
and maps the selected ids back to shard rows through the candidates'
rows (:func:`repro.core.knn.knn_output`).  Hypothesis drives every
``distributed_knn`` algorithm over duplicate-heavy clouds (ties
straddling the ℓ-th distance), labelled and unlabelled data, ℓ at or
above the shard size, and n < k (empty shards); each machine's
``points`` and ``labels`` must equal the dataset rows of its ``ids``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.driver import ALGORITHMS, distributed_knn
from repro.points.dataset import Dataset, make_dataset
from repro.sequential.brute import brute_force_knn_ids

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, ks):
    dim = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        # Few distinct sites: distance ties straddle the l-th neighbour.
        n_sites = draw(st.integers(min_value=1, max_value=4))
        sites = [[draw(coords) for _ in range(dim)] for _ in range(n_sites)]
        rows = [sites[draw(st.integers(0, n_sites - 1))] for _ in range(n)]
    else:
        rows = [[draw(coords) for _ in range(dim)] for _ in range(n)]
    labels = (
        np.array([draw(st.integers(-3, 3)) for _ in range(n)])
        if draw(st.booleans())
        else None
    )
    query = np.array([draw(coords) for _ in range(dim)])
    # l up to n covers l >= shard size whenever k > 1.
    l = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    dataset = make_dataset(np.array(rows), labels=labels, seed=seed)
    return dataset, query, l, k, seed


def assert_rows_match(outputs, dataset: Dataset, query: np.ndarray, l: int) -> None:
    row_of = {int(pid): row for row, pid in enumerate(dataset.ids)}
    got: set[int] = set()
    for out in outputs:
        rows = np.array([row_of[int(pid)] for pid in out.ids], dtype=np.intp)
        np.testing.assert_array_equal(out.points, dataset.points[rows])
        if dataset.labels is None:
            assert out.labels is None
        else:
            np.testing.assert_array_equal(out.labels, dataset.labels[rows])
        got |= {int(pid) for pid in out.ids}
    assert got == brute_force_knn_ids(dataset, query, l)


@given(instances(ks=(1, 2, 3, 5, 8)), st.sampled_from(ALGORITHMS))
def test_distributed_knn_rows_are_dataset_rows(instance, algorithm):
    dataset, query, l, k, seed = instance
    result = distributed_knn(dataset, query, l, k, seed=seed, algorithm=algorithm)
    assert_rows_match(result.raw.outputs, dataset, query, l)
