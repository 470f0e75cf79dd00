"""Theory-conformance monitor: did this run respect the paper's bounds?

Every check compares an *observed* quantity from a finished run
against the corresponding *predicted* bound from
:mod:`repro.analysis.theory`, and records the measured constant — the
observed value divided by the theorem's growth term — so reports can
say not just PASS/FAIL but "Algorithm 1 used ``c = 1.8`` of its
allowed ``~20.5`` rounds per log₂ n".

Checks implemented (names quote the paper):

* **Theorem 2.2** (Algorithm 1, selection): rounds ≤ c·log n and
  messages ≤ c·k·log n.  The bound is assembled from the proof's
  structure: at most ``3·log_{3/2} n`` expected iterations, ≤ 4 rounds
  and ≤ 2k messages per iteration, plus the init/finish overhead
  (:func:`repro.analysis.theory.selection_message_bound`).
* **Theorem 2.4** (Algorithm 2, ℓ-NN): rounds ≤ c·log ℓ and messages
  ≤ c·k·log ℓ, assembled from sampling transfer + threshold broadcast
  + safe-mode check + Algorithm 1 on ≤ 11ℓ survivors.
* **Lemma 2.3**: at most ``11ℓ`` candidates survive the threshold
  prune (checked against the leader's measured survivor count).

The bounds are w.h.p. statements; a seeded run violating one is
either an unlucky tail event (re-seed and re-check) or a regression —
both worth a FAIL verdict in a report.  ``slack`` scales every bound
if a caller wants headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.theory import (
    expected_selection_iterations_bound,
    knn_sample_messages,
    selection_message_bound,
)
from ..kmachine.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.driver import KNNResult, SelectResult

__all__ = [
    "ConformanceCheck",
    "ConformanceReport",
    "check_selection",
    "check_selection_result",
    "check_knn",
    "check_knn_result",
    "check_byzantine",
    "check_clustering",
    "check_coreset",
    "check_locality_rebalance",
    "check_rebalance",
    "check_served_query",
    "check_update",
    "byzantine_gather_overhead",
    "byzantine_message_budget",
    "clustering_message_budget",
    "coreset_message_budget",
    "locality_rebalance_message_budget",
    "rebalance_message_budget",
    "served_message_budget",
    "update_message_budget",
    "DECLARED_MESSAGE_CLASSES",
]

#: Asymptotic message classes of each protocol entry point, in the
#: plain (``f0``) and quorum-verified (``byz``) regimes: the one table
#: of the budgets the numeric ``*_message_budget`` functions above bound
#: concretely.  The static analyzer (KM007) proves the same classes and
#: reads this table as ``repro.lint.budgets.DECLARED_ENTRY_CLASSES``.
DECLARED_MESSAGE_CLASSES: dict[str, dict[str, str]] = {
    "algorithm1": {"f0": "k log", "byz": "k^2 log"},
    "algorithm2": {"f0": "k log", "byz": "k^2 log"},
    "update": {"f0": "k", "byz": "k^2"},
    # k−1 splitter selections, each quorum-scaled under byz
    # (rebalance_message_budget charges `runs × selection bound`).
    "rebalance": {"f0": "k^2 log", "byz": "k^3 log"},
    # Binomial merge: one block per machine over ⌈log₂k⌉ steps.  The
    # static analyzer sees a send inside a log-length loop on every
    # worker (k·log); the exact count is k−1.  No byz path is wired —
    # clustering is advisory (it steers placement/routing, never
    # answers), so its class is identical in both regimes.
    "coreset": {"f0": "k log", "byz": "k log"},
    # coreset + CenterSet broadcast + AssignStats gather = 3(k−1).
    "clustering": {"f0": "k log", "byz": "k log"},
    # One all-to-all migration (k(k−1) envelopes) + (k−1) acks; a
    # fault-plan session falls back to the id-space rebalancer.
    "locality_rebalance": {"f0": "k^2", "byz": "k^2"},
}

#: Rounds one Algorithm-1 iteration can cost: pivot round-trip (2) +
#: count broadcast/gather (2).
_ROUNDS_PER_ITERATION = 4

#: Init (broadcast + gather) and finish (broadcast) rounds around the
#: Algorithm-1 iteration loop.
_SELECTION_OVERHEAD_ROUNDS = 4

#: Safe-mode survivor check: count gather + go/no-go broadcast.
_SAFE_MODE_ROUNDS = 4

#: Lemma 2.3's survivor bound constant.
_LEMMA_23_FACTOR = 11


def _log2(x: float) -> float:
    """``log₂ x`` floored at 1 so constants stay finite for tiny inputs."""
    return max(1.0, math.log2(max(2.0, x)))


def _ingest_params(metrics: Metrics) -> dict[str, Any]:
    """Leader-ingest context for a report's params, when measurable.

    Profiled runs (``Simulator(observe="profile")``) carry per-link
    counters; from them the report can name the hot machine and its
    share of all message arrivals — so a failed message-budget check
    says *where* the traffic piled up, not just that it did.  Empty on
    unprofiled runs.
    """
    hot = metrics.hot_ingress()
    share = metrics.ingress_share()
    if hot is None or share is None:
        return {}
    return {"hot_machine": hot[0], "ingest_share": round(share, 4)}


@dataclass
class ConformanceCheck:
    """One observed-vs-bound verdict.

    ``constant`` is the measured constant (observed / ``scale`` term)
    and ``bound_constant`` the same normalisation of the bound, so the
    slack the analysis leaves is ``bound_constant / constant``.
    """

    name: str
    source: str
    observed: float
    bound: float
    scale: str
    constant: float
    bound_constant: float
    passed: bool

    def format(self) -> str:
        """``PASS rounds <= bound [Theorem 2.2] ...`` one-liner."""
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: observed {self.observed:g} <= bound "
            f"{self.bound:g} [{self.source}]  measured c = {self.constant:.3f} "
            f"per {self.scale} (allowed {self.bound_constant:.3f})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "source": self.source,
            "observed": self.observed,
            "bound": self.bound,
            "scale": self.scale,
            "constant": self.constant,
            "bound_constant": self.bound_constant,
            "passed": self.passed,
        }


@dataclass
class ConformanceReport:
    """All checks for one run, with the run's parameters."""

    algorithm: str
    params: dict[str, Any] = field(default_factory=dict)
    checks: list[ConformanceCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConformanceCheck:
        """Lookup one check by name."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        head = (
            f"conformance[{self.algorithm}] "
            f"{' '.join(f'{k}={v}' for k, v in self.params.items())}: "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join([head] + [f"  {c.format()}" for c in self.checks])

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _make_check(
    name: str,
    source: str,
    observed: float,
    bound: float,
    scale_value: float,
    scale_label: str,
) -> ConformanceCheck:
    return ConformanceCheck(
        name=name,
        source=source,
        observed=float(observed),
        bound=float(bound),
        scale=scale_label,
        constant=float(observed) / scale_value,
        bound_constant=float(bound) / scale_value,
        passed=float(observed) <= float(bound),
    )


def selection_rounds_bound(n: int) -> float:
    """Theorem 2.2's round budget, assembled from the proof structure."""
    return (
        _ROUNDS_PER_ITERATION * expected_selection_iterations_bound(max(2, n))
        + _SELECTION_OVERHEAD_ROUNDS
    )


def check_selection(
    metrics: Metrics,
    *,
    n: int,
    k: int,
    iterations: int | None = None,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check an Algorithm 1 run against Theorem 2.2.

    ``n`` is the global key count, ``k`` the machine count;
    ``iterations`` (the leader's
    :attr:`~repro.core.selection.SelectionStats.iterations`) adds the
    tighter per-iteration check when available.  ``slack`` scales every
    bound (1.0 = the theory's own constants).  On profiled runs the
    report's params also name the hot machine and its measured
    leader-ingest share (see :func:`_ingest_params`).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    report = ConformanceReport(
        algorithm="algorithm1",
        params={"n": n, "k": k, **_ingest_params(metrics)},
    )
    log_n = _log2(n)
    report.checks.append(
        _make_check(
            "rounds",
            "Theorem 2.2",
            metrics.rounds,
            slack * selection_rounds_bound(n),
            log_n,
            "log2(n)",
        )
    )
    report.checks.append(
        _make_check(
            "messages",
            "Theorem 2.2",
            metrics.messages,
            slack * selection_message_bound(max(2, n), k),
            k * log_n,
            "k*log2(n)",
        )
    )
    if iterations is not None:
        report.checks.append(
            _make_check(
                "iterations",
                "Theorem 2.2",
                iterations,
                slack * expected_selection_iterations_bound(max(2, n)),
                log_n,
                "log2(n)",
            )
        )
    return report


def check_selection_result(
    result: "SelectResult", *, n: int, k: int, slack: float = 1.0
) -> ConformanceReport:
    """:func:`check_selection` on a :func:`repro.core.driver.distributed_select` result."""
    iterations = result.stats.iterations if result.stats is not None else None
    return check_selection(
        result.metrics, n=n, k=k, iterations=iterations, slack=slack
    )


def knn_rounds_bound(
    l: int,
    k: int,
    *,
    sample_factor: int = 12,
    safe_mode: bool = True,
    survivors_cap: int | None = None,
) -> float:
    """Theorem 2.4's round budget, assembled from the protocol stages.

    Sampling transfer (≤ one sample message per link-round, i.e.
    ``sample_factor·⌈log₂ ℓ⌉`` rounds), threshold broadcast (2), the
    optional safe-mode survivor check (4), and Algorithm 1 on at most
    ``11ℓ`` survivors (Lemma 2.3) — every term O(log ℓ), independent
    of k and n.
    """
    log_l = max(1, math.ceil(math.log2(max(2, l))))
    cap = survivors_cap if survivors_cap is not None else _LEMMA_23_FACTOR * l
    rounds = float(sample_factor * log_l) + 2.0
    if safe_mode:
        rounds += _SAFE_MODE_ROUNDS
    rounds += selection_rounds_bound(max(2, cap))
    return rounds


def knn_message_budget(
    l: int,
    k: int,
    *,
    sample_factor: int = 12,
    safe_mode: bool = True,
    survivors_cap: int | None = None,
) -> float:
    """Theorem 2.4's message budget (sampling + threshold + safe + selection)."""
    cap = survivors_cap if survivors_cap is not None else _LEMMA_23_FACTOR * l
    messages = float(knn_sample_messages(l, k, sample_factor)) + (k - 1)
    if safe_mode:
        messages += 2.0 * (k - 1)
    messages += selection_message_bound(max(2, cap), k)
    return messages


def check_knn(
    metrics: Metrics,
    *,
    l: int,
    k: int,
    survivors: int | None = None,
    sample_factor: int = 12,
    safe_mode: bool = True,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check an Algorithm 2 run against Theorem 2.4 and Lemma 2.3.

    ``survivors`` is the leader's measured candidate count entering the
    selection stage (:attr:`~repro.core.knn.KNNOutput.survivors`);
    when given, the Lemma 2.3 check ``survivors ≤ 11ℓ`` is included.
    On profiled runs the report's params also name the hot machine and
    its measured leader-ingest share (see :func:`_ingest_params`).
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    report = ConformanceReport(
        algorithm="algorithm2",
        params={"l": l, "k": k, **_ingest_params(metrics)},
    )
    log_l = _log2(l)
    report.checks.append(
        _make_check(
            "rounds",
            "Theorem 2.4",
            metrics.rounds,
            slack * knn_rounds_bound(
                l, k, sample_factor=sample_factor, safe_mode=safe_mode
            ),
            log_l,
            "log2(l)",
        )
    )
    report.checks.append(
        _make_check(
            "messages",
            "Theorem 2.4",
            metrics.messages,
            slack * knn_message_budget(
                l, k, sample_factor=sample_factor, safe_mode=safe_mode
            ),
            k * log_l,
            "k*log2(l)",
        )
    )
    if survivors is not None:
        report.checks.append(
            _make_check(
                "survivors",
                "Lemma 2.3",
                survivors,
                slack * _LEMMA_23_FACTOR * l,
                float(l),
                "l",
            )
        )
    return report


def check_knn_result(
    result: "KNNResult",
    *,
    l: int,
    k: int,
    sample_factor: int = 12,
    safe_mode: bool = True,
    slack: float = 1.0,
) -> ConformanceReport:
    """:func:`check_knn` on a :func:`repro.core.driver.distributed_knn` result."""
    leader = result.leader_output
    survivors = getattr(leader, "survivors", None)
    return check_knn(
        result.metrics,
        l=l,
        k=k,
        survivors=survivors,
        sample_factor=sample_factor,
        safe_mode=safe_mode,
        slack=slack,
    )


def served_message_budget(
    l: int,
    k: int,
    *,
    warm_start: bool = False,
    sample_factor: int = 12,
    safe_mode: bool = True,
    survivors_cap: int | None = None,
) -> float:
    """Message budget for one *served* query (the serving layer's unit).

    A session answers many queries concurrently, so per-query *rounds*
    are shared and unattributable — but messages are, via the
    ``bq/<qid>`` tag namespace.  A cold served query carries exactly
    Theorem 2.4's message budget (election excluded; sessions pay it
    once).  A warm-started query carries a cached triangle-inequality
    threshold, so the sampling-stage term (``O(k log ℓ)`` sample
    messages plus the threshold broadcast) drops out; what remains is
    the safe-mode check and Algorithm 1 on the survivors.  In Algorithm
    2's exact regime a warm query instead ships at most ℓ keys per
    machine for one cut, ``(k−1)(ℓ + 2)`` messages, which this budget
    covers at every ℓ ≤ 12⌈log₂ℓ⌉.
    """
    cap = survivors_cap if survivors_cap is not None else _LEMMA_23_FACTOR * l
    if warm_start:
        messages = 0.0
    else:
        messages = float(knn_sample_messages(l, k, sample_factor)) + (k - 1)
    if safe_mode:
        messages += 2.0 * (k - 1)
    messages += selection_message_bound(max(2, cap), k)
    return messages


def update_message_budget(k: int, *, insert_targets: int = 0) -> float:
    """Message budget for one batched insert/delete episode.

    :class:`repro.dyn.updates.UpdateProgram` spends ``3(k−1)`` control
    messages (load report, plan broadcast, acks) plus one
    :class:`~repro.kmachine.schema.PointBatch` envelope per distinct
    non-leader insert target — O(k) total, independent of the batch
    size or of n.
    """
    return 3.0 * (k - 1) + float(insert_targets)


def check_update(
    messages: int,
    *,
    k: int,
    insert_targets: int = 0,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check one update episode's traffic against its O(k) budget.

    ``messages`` is the episode's metrics delta (e.g. from
    :class:`repro.dyn.updates.MutationRecord`); ``insert_targets`` the
    leader-reported count of distinct envelope recipients.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    report = ConformanceReport(
        algorithm="dyn-update",
        params={"k": k, "insert_targets": insert_targets},
    )
    report.checks.append(
        _make_check(
            "messages",
            "update protocol (O(k))",
            messages,
            slack * update_message_budget(k, insert_targets=insert_targets),
            float(max(1, k)),
            "k",
        )
    )
    return report


def rebalance_message_budget(
    n: int, k: int, *, splitters_run: int | None = None
) -> float:
    """Message budget for one rebalance episode.

    Control traffic (load report + total broadcast + acks, ``3(k−1)``),
    the all-to-all migration (``k(k−1)`` envelopes — structural sizing
    charges moved *bits*, the envelope count is fixed), and one
    Theorem 2.2 selection budget per non-degenerate splitter run
    (``k − 1`` of them unless the caller reports fewer).
    """
    runs = (k - 1) if splitters_run is None else splitters_run
    return (
        3.0 * (k - 1)
        + float(k * (k - 1))
        + runs * selection_message_bound(max(2, n), k)
    )


def check_rebalance(
    messages: int,
    *,
    n: int,
    k: int,
    splitters_run: int | None = None,
    moved_points: int | None = None,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check one rebalance episode against its message budget.

    ``n`` is the global point count (sizes the per-splitter Theorem 2.2
    term); ``splitters_run`` the leader-reported count of
    non-degenerate Algorithm 1 invocations.  ``moved_points`` is
    recorded in the report params for context (migration *bits* scale
    with it; the envelope *count* does not).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    params: dict[str, Any] = {"n": n, "k": k}
    if splitters_run is not None:
        params["splitters_run"] = splitters_run
    if moved_points is not None:
        params["moved_points"] = moved_points
    report = ConformanceReport(algorithm="dyn-rebalance", params=params)
    report.checks.append(
        _make_check(
            "messages",
            "rebalance protocol (Theorem 2.2 per splitter)",
            messages,
            slack * rebalance_message_budget(n, k, splitters_run=splitters_run),
            float(max(1, k)) * _log2(n),
            "k*log2(n)",
        )
    )
    return report


def coreset_message_budget(k: int) -> float:
    """Message budget for one coreset construction episode.

    The binomial merge tree of
    :func:`repro.cluster.coreset.coreset_subroutine` delivers exactly
    one :class:`~repro.kmachine.schema.Coreset` block per non-leader
    machine — ``k − 1`` messages over ``⌈log₂ k⌉`` rounds, independent
    of n, d, and the coreset size (structural sizing charges the block
    *bits* separately).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(k - 1)


def clustering_message_budget(k: int) -> float:
    """Message budget for one full clustering episode.

    Three converge/diverge phases of
    :class:`repro.cluster.driver.ClusteringProgram`, each exactly
    ``k − 1`` messages: the coreset merge, the
    :class:`~repro.kmachine.schema.CenterSet` broadcast, and the
    :class:`~repro.kmachine.schema.AssignStats` gather.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return 3.0 * (k - 1)


def locality_rebalance_message_budget(k: int) -> float:
    """Message budget for one locality migration episode.

    :class:`repro.dyn.balance.LocalityRebalanceProgram` is one
    all-to-all (``k(k−1)`` :class:`~repro.kmachine.schema.PointBatch`
    envelopes — the count is fixed, moved *bits* are what scale) plus
    ``k − 1`` load acks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(k * (k - 1)) + float(k - 1)


def check_coreset(
    messages: int, *, k: int, slack: float = 1.0
) -> ConformanceReport:
    """Check one coreset episode's traffic against its ``k − 1`` budget.

    ``messages`` is the episode's metrics delta (a
    :func:`repro.cluster.driver.distributed_cluster` result reports the
    whole-episode count; subtract the other phases or run
    :class:`~repro.cluster.coreset.CoresetProgram` standalone).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    report = ConformanceReport(algorithm="cluster-coreset", params={"k": k})
    report.checks.append(
        _make_check(
            "messages",
            "coreset merge tree (k - 1)",
            messages,
            slack * coreset_message_budget(k),
            float(max(1, k)),
            "k",
        )
    )
    return report


def check_clustering(
    messages: int, *, k: int, slack: float = 1.0
) -> ConformanceReport:
    """Check one clustering episode's traffic against its ``3(k−1)`` budget."""
    if k < 1:
        raise ValueError("k must be >= 1")
    report = ConformanceReport(algorithm="cluster-solve", params={"k": k})
    report.checks.append(
        _make_check(
            "messages",
            "clustering episode (3(k - 1))",
            messages,
            slack * clustering_message_budget(k),
            float(max(1, k)),
            "k",
        )
    )
    return report


def check_locality_rebalance(
    messages: int,
    *,
    k: int,
    moved_points: int | None = None,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check one locality migration against its ``k²``-class budget.

    ``moved_points`` is recorded for context only — migration *bits*
    scale with it, the envelope count never does.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    params: dict[str, Any] = {"k": k}
    if moved_points is not None:
        params["moved_points"] = moved_points
    report = ConformanceReport(algorithm="dyn-locality-rebalance", params=params)
    report.checks.append(
        _make_check(
            "messages",
            "locality migration (k(k-1) + (k-1))",
            messages,
            slack * locality_rebalance_message_budget(k),
            float(max(1, k * k)),
            "k^2",
        )
    )
    return report


def check_served_query(
    messages: int,
    *,
    l: int,
    k: int,
    warm_start: bool = False,
    survivors: int | None = None,
    sample_factor: int = 12,
    safe_mode: bool = True,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check one served query's attributable traffic against the theory.

    ``messages`` is the query's tag-attributed count (e.g.
    :attr:`repro.serve.session.SessionAnswer.messages`).  The Lemma
    2.3 survivor check applies to cold queries only — a warm-started
    query's survivor count is governed by the carried radius, and the
    cache layer's blow-up guard (not the lemma) polices it.
    """
    if l < 1 or k < 1:
        raise ValueError("l and k must be >= 1")
    report = ConformanceReport(
        algorithm="served-query",
        params={"l": l, "k": k, "warm_start": warm_start},
    )
    log_l = _log2(l)
    report.checks.append(
        _make_check(
            "messages",
            "Theorem 2.4" + (" (warm start)" if warm_start else ""),
            messages,
            slack * served_message_budget(
                l,
                k,
                warm_start=warm_start,
                sample_factor=sample_factor,
                safe_mode=safe_mode,
            ),
            k * log_l,
            "k*log2(l)",
        )
    )
    if survivors is not None and not warm_start:
        report.checks.append(
            _make_check(
                "survivors",
                "Lemma 2.3",
                survivors,
                slack * _LEMMA_23_FACTOR * l,
                float(l),
                "l",
            )
        )
    return report


def byzantine_gather_overhead(k: int) -> float:
    """Extra messages one *hardened* exchange costs over its plain form.

    The quorum defenses replace each trust-the-leader hop with two
    mesh-shaped phases (:mod:`repro.kmachine.byz`): a confirmed
    broadcast echoes the leader's value worker-to-worker
    (``(k−1)(k−2)`` echoes on top of the plain ``k−1`` sends), and a
    confirmed decision gathers a vote from every live machine at every
    live machine (``(k−1)²`` envelopes where the plain path used
    ``k−1`` acks).  Both phases stay O(k²) and n-free — lying costs
    a factor of k in messages, never a factor of n.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float((k - 1) * (k - 2)) + float((k - 1) ** 2)


def byzantine_message_budget(
    n: int,
    k: int,
    f: int,
    *,
    iterations: float | None = None,
    attempts: int = 1,
) -> float:
    """Message budget for hardened selection under ≤ f liars.

    Per attempt the budget is Theorem 2.2's plain bound plus one
    :func:`byzantine_gather_overhead` per Algorithm 1 iteration (each
    iteration runs one confirmed pivot broadcast and one confirmed
    count decision); a supervised operation may retry up to ``2f + 2``
    times, so ``attempts`` scales the whole budget.  At ``f = 0`` the
    hardened paths are compiled out and the budget collapses to the
    plain Theorem 2.2 bound — the zero-overhead contract.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if f < 0 or attempts < 1:
        raise ValueError("f must be >= 0 and attempts >= 1")
    plain = selection_message_bound(max(2, n), k)
    if f == 0:
        return plain
    iters = (
        float(iterations)
        if iterations is not None
        else expected_selection_iterations_bound(max(2, n))
    )
    per_attempt = plain + iters * byzantine_gather_overhead(k)
    return attempts * per_attempt


def check_byzantine(
    messages: int,
    *,
    n: int,
    k: int,
    f: int,
    iterations: float | None = None,
    attempts: int = 1,
    slack: float = 1.0,
) -> ConformanceReport:
    """Check one supervised Byzantine operation against its budgets.

    ``messages`` is the operation's metrics delta across *all* its
    attempts; ``attempts`` the supervisor's attempt count (from
    :attr:`repro.core.driver.SelectResult.attempts` or the session's
    retry marks).  Two checks: total traffic stays within ``attempts``
    hardened-selection budgets (O(k² log n) per attempt — degradation
    is a k-factor, never an n-factor), and the supervisor honoured its
    ``2f + 2`` attempt ceiling, which bounds detection latency and
    guarantees termination.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if f < 0:
        raise ValueError("f must be >= 0")
    report = ConformanceReport(
        algorithm="byzantine",
        params={"n": n, "k": k, "f": f, "attempts": attempts},
    )
    scale = float(max(1, k * k)) * _log2(n)
    report.checks.append(
        _make_check(
            "messages",
            "hardened selection (O(k^2 log n) per attempt)",
            messages,
            slack * byzantine_message_budget(
                n, k, f, iterations=iterations, attempts=attempts
            ),
            scale,
            "k^2*log2(n)",
        )
    )
    report.checks.append(
        _make_check(
            "attempts",
            "supervisor budget (2f + 2)",
            attempts,
            float(2 * f + 2),
            float(max(1, f + 1)),
            "f+1",
        )
    )
    return report
