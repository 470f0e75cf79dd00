"""repro — reproduction of "Efficient Distributed Algorithms for the
K-Nearest Neighbors Problem" (Fathi, Molla, Pandurangan; SPAA 2020).

Subpackages
-----------
``repro.kmachine``
    The k-machine model simulator: synchronous rounds,
    bandwidth-constrained clique, round/message metrics.
``repro.points``
    Metrics, datasets, partitioners, workload generators, ID scheme.
``repro.sequential``
    Sequential references: selection, brute-force l-NN, k-d tree.
``repro.core``
    Algorithm 1 (distributed selection), Algorithm 2 (distributed
    l-NN), the simple-method baseline, related-work comparators,
    the one-call driver API and the KNN classifier/regressor.
``repro.runtime``
    Real-parallelism executors: the TCP backend (``backend="net"``,
    one OS process per machine over a socket clique) and the
    multiprocessing backend used for wall-clock checks.
``repro.analysis``
    Statistics, complexity fits, table/plot rendering.
``repro.experiments``
    One module per paper artifact (Figure 2, theorem validations).

Quick start
-----------
>>> import numpy as np
>>> from repro import distributed_knn
>>> pts = np.random.default_rng(0).uniform(0, 1, (10_000, 4))
>>> result = distributed_knn(pts, query=pts[0], l=8, k=16, seed=1)
>>> result.metrics.rounds  # doctest: +SKIP
34
"""

from .core import (
    DistributedKNNClassifier,
    DistributedKNNRegressor,
    KNNProgram,
    KNNResult,
    SelectionProgram,
    SelectResult,
    SimpleKNNProgram,
    distributed_knn,
    distributed_select,
)
from .kmachine import Metrics, SimulationResult, Simulator

__version__ = "1.0.0"

__all__ = [
    "DistributedKNNClassifier",
    "DistributedKNNRegressor",
    "KNNProgram",
    "KNNResult",
    "Metrics",
    "SelectResult",
    "SelectionProgram",
    "SimpleKNNProgram",
    "SimulationResult",
    "Simulator",
    "__version__",
    "distributed_knn",
    "distributed_select",
]
