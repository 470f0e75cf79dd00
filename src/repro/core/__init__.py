"""The paper's algorithms: distributed selection, ℓ-NN, and baselines.

* :class:`SelectionProgram` / :func:`selection_subroutine` —
  **Algorithm 1**, randomized distributed selection, O(log n) rounds.
* :class:`KNNProgram` / :func:`knn_subroutine` — **Algorithm 2**,
  sampled distributed ℓ-NN, O(log ℓ) rounds.
* :class:`SimpleKNNProgram` — the gather-everything baseline of §3.
* :class:`SaukasSongKNNProgram`, :class:`BinarySearchKNNProgram` —
  related-work comparators ([16] and [3, 18]).
* :func:`distributed_select` / :func:`distributed_knn` — one-call API.
* :class:`DistributedKNNClassifier` / :class:`DistributedKNNRegressor`
  — the machine-learning application layer.
* leader election strategies in :mod:`repro.core.leader`.
"""

from .aggregates import (
    distributed_extrema,
    distributed_median,
    distributed_quantile,
    distributed_range_count,
    distributed_top_k,
)
from .binary_search import (
    BinarySearchKNNProgram,
    BinarySearchSelectionProgram,
    BinarySearchStats,
    binary_search_subroutine,
)
from .classifier import DistributedKNNClassifier, DistributedKNNRegressor, QueryRecord
from .driver import (
    ALGORITHMS,
    DEFAULT_BANDWIDTH_BITS,
    KNNResult,
    SelectResult,
    distributed_knn,
    distributed_select,
    knn_program_for,
)
from .knn import KNNOutput, KNNProgram, knn_subroutine, local_candidates
from .leader import elect, elect_min_id, elect_sublinear, fixed_leader
from .monitor import MovingKNNMonitor, RefreshRecord
from .messages import decode_key, encode_key, log2_ceil, tag
from .saukas_song import (
    SaukasSongKNNProgram,
    SaukasSongSelectionProgram,
    SaukasSongStats,
    saukas_song_subroutine,
)
from .selection import (
    SelectionOutput,
    SelectionProgram,
    SelectionStats,
    selection_subroutine,
)
from .simple import SimpleKNNProgram, simple_knn_subroutine

__all__ = [
    "ALGORITHMS",
    "BinarySearchKNNProgram",
    "BinarySearchSelectionProgram",
    "BinarySearchStats",
    "DEFAULT_BANDWIDTH_BITS",
    "DistributedKNNClassifier",
    "DistributedKNNRegressor",
    "KNNOutput",
    "KNNProgram",
    "KNNResult",
    "MovingKNNMonitor",
    "QueryRecord",
    "RefreshRecord",
    "SaukasSongKNNProgram",
    "SaukasSongSelectionProgram",
    "SaukasSongStats",
    "SelectResult",
    "SelectionOutput",
    "SelectionProgram",
    "SelectionStats",
    "SimpleKNNProgram",
    "binary_search_subroutine",
    "decode_key",
    "distributed_extrema",
    "distributed_knn",
    "distributed_median",
    "distributed_quantile",
    "distributed_range_count",
    "distributed_select",
    "distributed_top_k",
    "elect",
    "elect_min_id",
    "elect_sublinear",
    "encode_key",
    "fixed_leader",
    "knn_program_for",
    "knn_subroutine",
    "local_candidates",
    "log2_ceil",
    "saukas_song_subroutine",
    "selection_subroutine",
    "simple_knn_subroutine",
    "tag",
]
