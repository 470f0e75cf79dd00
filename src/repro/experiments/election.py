"""ELECT experiment: leader-election cost (the paper's [9] citation).

Algorithm 1's first line elects a leader, citing Kutten et al. [9]:
constant rounds and ``O(√k·log^{3/2} k)`` messages on a clique.  The
experiment measures all three strategies this library provides —
known leader (free), min-ID all-to-all (``k(k−1)`` messages), and the
referee-based sublinear scheme — across k, verifying agreement on
every run and showing where the sublinear scheme's message bill
crosses below the deterministic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from ..analysis.stats import Summary, summarize
from ..analysis.tables import render_table, to_csv
from ..core.leader import elect
from ..kmachine.machine import FunctionProgram
from ..kmachine.simulator import Simulator

__all__ = ["ElectionConfig", "ElectionCell", "ElectionResult", "run_election"]


@dataclass
class ElectionConfig:
    """Sweep configuration for the election experiment.

    ``observe="spans"`` runs every trial with phase-span recording (see
    :mod:`repro.obs`) and summarises the ``election`` span's round
    delta per cell — the protocol-phase cost as the span machinery
    measures it, which should agree with the whole-run round metric
    since election is the only phase these programs run.
    """

    methods: Sequence[str] = ("min_id", "sublinear")
    k_values: Sequence[int] = (4, 16, 64, 256)
    repetitions: int = 10
    seed: int = 9
    observe: str = "off"


@dataclass
class ElectionCell:
    """One (method, k) cell."""

    method: str
    k: int
    rounds: Summary
    messages: Summary
    agreements: int
    trials: int
    sqrt_bound: float  # √k · log2^{3/2} k, the [9] reference curve
    span_rounds: Summary | None = None  # "election" span delta (observed runs)


@dataclass
class ElectionResult:
    """All cells plus rendering."""

    config: ElectionConfig
    cells: list[ElectionCell] = field(default_factory=list)

    HEADERS = ("method", "k", "rounds", "messages", "msgs/bound", "agree")

    def rows(self) -> list[list]:
        """Tabular form (messages normalised by the [9] bound)."""
        return [
            [
                c.method,
                c.k,
                c.rounds.mean,
                c.messages.mean,
                c.messages.mean / max(c.sqrt_bound, 1.0),
                f"{c.agreements}/{c.trials}",
            ]
            for c in self.cells
        ]

    def report(self) -> str:
        """Aligned table."""
        return render_table(
            self.HEADERS, self.rows(),
            title="Leader election cost ([9]: O(1) rounds, O(sqrt(k) log^1.5 k) msgs)",
        )

    def csv(self) -> str:
        """CSV of :meth:`rows`."""
        return to_csv(self.HEADERS, self.rows())

    def cell(self, method: str, k: int) -> ElectionCell:
        """Lookup one cell."""
        for c in self.cells:
            if (c.method, c.k) == (method, k):
                return c
        raise KeyError((method, k))


def run_election(config: ElectionConfig | None = None) -> ElectionResult:
    """Run the election sweep."""
    cfg = config or ElectionConfig()
    result = ElectionResult(config=cfg)
    rng = np.random.default_rng(cfg.seed)
    for method in cfg.methods:
        for k in cfg.k_values:
            rounds, msgs = [], []
            span_rounds: list[float] = []
            agreements = 0
            for rep in range(cfg.repetitions):
                def prog(ctx, m=method) -> Generator[None, None, int]:
                    leader = yield from elect(ctx, method=m)
                    return leader

                sim = Simulator(
                    k=k,
                    program=FunctionProgram(prog, name=f"elect-{method}"),
                    seed=int(rng.integers(0, 2**31)),
                    bandwidth_bits=512,
                    observe=cfg.observe,
                )
                res = sim.run()
                rounds.append(res.metrics.rounds)
                msgs.append(res.metrics.messages)
                if len(set(res.outputs)) == 1:
                    agreements += 1
                if res.spans:
                    span_rounds.append(
                        max(s.rounds for s in res.spans if s.name == "election")
                    )
            bound = math.sqrt(k) * max(1.0, math.log2(k)) ** 1.5
            result.cells.append(
                ElectionCell(
                    method=method,
                    k=k,
                    rounds=summarize(rounds),
                    messages=summarize(msgs),
                    agreements=agreements,
                    trials=cfg.repetitions,
                    sqrt_bound=bound,
                    span_rounds=summarize(span_rounds) if span_rounds else None,
                )
            )
    return result
