"""Measure α–β–γ cost-model constants from the live TCP transport.

The simulator charges communication with an analytic
:class:`~repro.kmachine.timing.CostModel` whose defaults describe
"commodity Ethernet".  This module replaces the guesses with
*measurements* of the actual deployment — the same clique-of-TCP
transport :class:`~repro.runtime.net.NetSimulator` runs protocols on —
by timing three micro-protocols over a persistent cluster:

``α`` (round latency)
    Rounds in which every machine sends one minimal message around a
    ring.  Wall seconds per round ≈ the fixed cost of a synchronous
    round on this transport with all machines active: barrier control
    hops, one data hop each, and — on oversubscribed hosts — the cost
    of scheduling every participant once.
``β`` (streamed throughput)
    Rounds carrying one large contiguous ndarray (zero-copy framed).
    The per-round wall in excess of α, divided into the payload bits,
    is the achievable per-link streaming rate.
``γ`` (per-message overhead)
    Rounds carrying a burst of ``m`` small messages per machine (same
    ring shape as the α probe).  The per-round excess over α divided
    by ``m`` prices the per-message software overhead (framing, codec,
    buffering).

The returned :class:`~repro.kmachine.timing.CostModel` plugs into
``Simulator(cost_model=...)``, ``distributed_knn(cost_model=...)`` and
:class:`repro.obs.profile.CostProfile` unchanged;
:func:`predicted_wall_seconds` applies it to a timeline-bearing
:class:`~repro.kmachine.metrics.Metrics` to predict (or cross-check)
real wall-clock.  ``idle_round_seconds`` is set to the measured α:
unlike the analysis model, an idle round on a real transport still
pays the barrier.

Probe parameters are explicit arguments (defaults: 30 rounds, 4 MiB
blocks, 64-message bursts) so CI can run a quick pass while a real
cluster calibration uses longer streams for tighter estimates.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..kmachine.machine import FunctionProgram
from ..kmachine.metrics import Metrics
from ..kmachine.timing import CostModel
from .net import NetOptions, NetSimulator

__all__ = ["calibrate", "predicted_wall_seconds"]

#: Floor for the β/γ excess-over-α denominators: localhost probes can
#: measure a big-block round *faster* than the α estimate's noise.
_EPS_SECONDS = 1e-7


def _alpha_probe(ctx):
    """Every rank sends one minimal message around a ring, each round.

    All machines are *active* every round — on an oversubscribed host
    (cores < processes) a round's fixed cost is dominated by scheduling
    every participant, so a probe where only one rank sends would
    underestimate α by the core-contention factor.
    """
    rounds = ctx.local["rounds"]
    nxt = (ctx.rank + 1) % ctx.k
    with ctx.obs.span("cal/alpha"):
        for _ in range(rounds):
            ctx.send(nxt, "cal/ping", 0)
            yield from ctx.recv_one("cal/ping")
    return None


def _beta_probe(ctx):
    """One large zero-copy block per round, rank 0 → rank 1."""
    rounds = ctx.local["rounds"]
    with ctx.obs.span("cal/beta"):
        if ctx.rank == 0:
            block = ctx.local["block"]
            for _ in range(rounds):
                ctx.send(1, "cal/block", block)
                yield
        elif ctx.rank == 1:
            for _ in range(rounds):
                yield from ctx.recv_one("cal/block")
    return None


def _gamma_probe(ctx):
    """A burst of small messages per round, every rank → its successor.

    Mirrors the ring shape of :func:`_alpha_probe` so the excess over
    α isolates the per-message software overhead instead of the
    single-sender scheduling artefact.
    """
    rounds = ctx.local["rounds"]
    burst = ctx.local["burst"]
    nxt = (ctx.rank + 1) % ctx.k
    with ctx.obs.span("cal/gamma"):
        for _ in range(rounds):
            for i in range(burst):
                ctx.send(nxt, "cal/burst", i)
            yield from ctx.recv("cal/burst", burst)
    return None


def _timed_episode(sim: NetSimulator, program) -> tuple[float, int, int]:
    """Run one episode; return (wall_seconds, rounds, bits) deltas."""
    rounds_before = sim.metrics.rounds
    bits_before = sim.metrics.bits
    started = time.perf_counter()
    sim.run_episode(FunctionProgram(program))
    wall = time.perf_counter() - started
    return (
        wall,
        sim.metrics.rounds - rounds_before,
        sim.metrics.bits - bits_before,
    )


def calibrate(
    k: int = 2,
    *,
    rounds: int = 30,
    payload_bytes: int = 1 << 22,
    burst: int = 64,
    seed: int = 0,
    options: NetOptions | dict | None = None,
) -> tuple[CostModel, dict[str, Any]]:
    """Measure a :class:`CostModel` from a live ``k``-peer TCP cluster.

    Returns ``(model, detail)``; ``detail`` holds the raw per-probe
    wall/round/bit numbers the estimates were derived from, so a bench
    can archive how the constants were obtained.  The probes only
    exercise the rank 0 → 1 link — α-β-γ describe a *link*, and the
    transport's links are symmetric — but ``k`` may be raised to
    include more barrier participants in the α estimate.
    """
    if k < 2:
        raise ValueError("calibration needs at least 2 machines")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    block_words = max(1, payload_bytes // 8)
    inputs = [
        {
            "rounds": rounds,
            "block": np.zeros(block_words, dtype=np.float64),
            "burst": burst,
        }
        for _ in range(k)
    ]
    sim = NetSimulator(
        k,
        FunctionProgram(_alpha_probe),
        inputs=inputs,
        seed=seed,
        persistent=True,
        options=options,
    )
    try:
        # Warm-up run: forms the cluster, ships the probe inputs, and
        # pages every code path once so the timed episodes measure
        # steady-state transport, not import/connect costs.
        sim.run()
        alpha_wall, alpha_rounds, _ = _timed_episode(sim, _alpha_probe)
        beta_wall, beta_rounds, beta_bits = _timed_episode(sim, _beta_probe)
        gamma_wall, gamma_rounds, _ = _timed_episode(sim, _gamma_probe)
    finally:
        sim.close()

    alpha = alpha_wall / max(alpha_rounds, 1)
    per_block_round = beta_wall / max(beta_rounds, 1)
    block_bits = beta_bits / max(beta_rounds, 1)
    beta = block_bits / max(per_block_round - alpha, _EPS_SECONDS)
    per_burst_round = gamma_wall / max(gamma_rounds, 1)
    gamma = max(per_burst_round - alpha, 0.0) / max(burst, 1)

    model = CostModel(
        alpha_seconds=alpha,
        beta_bits_per_second=beta,
        gamma_seconds_per_message=gamma,
        idle_round_seconds=alpha,
    )
    detail = {
        "k": k,
        "probe_rounds": rounds,
        "payload_bytes": block_words * 8,
        "burst": burst,
        "alpha_wall_seconds": alpha_wall,
        "alpha_rounds": alpha_rounds,
        "beta_wall_seconds": beta_wall,
        "beta_rounds": beta_rounds,
        "beta_bits": beta_bits,
        "gamma_wall_seconds": gamma_wall,
        "gamma_rounds": gamma_rounds,
    }
    return model, detail


def predicted_wall_seconds(model: CostModel, metrics: Metrics) -> float:
    """Wall-clock a timeline-bearing run should take under ``model``.

    Re-prices every recorded round with
    :meth:`~repro.kmachine.timing.CostModel.round_cost` and adds the
    measured compute — the number to compare against the run's actual
    wall seconds when validating a calibration (the bench gate asserts
    agreement within 3×).  Requires the run to have recorded a
    ``timeline`` (``observe="profile"``).
    """
    if not metrics.timeline:
        raise ValueError("predicted_wall_seconds needs a recorded timeline")
    comm = sum(
        model.round_cost(
            record.max_link_bits,
            record.messages_sent > 0,
            record.max_dst_messages,
        )
        for record in metrics.timeline
    )
    return comm + metrics.compute_seconds
