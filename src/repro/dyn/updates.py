"""Batched live inserts and deletes as SPMD update episodes.

One :class:`UpdateProgram` episode applies a batch of inserts and/or
deletes to the resident shards, in O(1) rounds and O(k) messages:

1. **Load report** — every worker sends its shard size to the leader
   (``k − 1`` messages, one round).  This is the O(k)-message load
   report the imbalance monitor consumes; it also drives routing.
2. **Routing** — the leader assigns each insert to the currently
   least-loaded machine (greedy argmin over the reported loads, so a
   batch spreads across underfull machines) and broadcasts an
   :class:`~repro.kmachine.schema.UpdatePlan` carrying the per-machine
   insert counts and the full delete-id list.  Machines with a
   non-zero count additionally receive one wire-schema'd
   :class:`~repro.kmachine.schema.PointBatch` envelope — counts keep
   receive totals deterministic without empty messages.
3. **Apply + ack** — every machine deletes the ids it holds, appends
   its routed inserts (both through the shard mutation API), and acks
   ``(deleted, new_load)`` to the leader.

Total traffic: ``3(k−1)`` control messages plus one envelope per
distinct insert target — the bound
:func:`repro.obs.conformance.update_message_budget` checks.

The *data epoch* is session-level state: :class:`~repro.serve.session.
ClusterSession` bumps it once per update episode and records the
transition in its :class:`~repro.dyn.epochs.EpochLog`; rebalance
episodes move points between machines without changing the point set,
so they do **not** bump the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core.messages import tag
from ..kmachine.byz import ByzConfig, ByzantineError, recv_from, robust_loads, suspicions
from ..kmachine.machine import MachineContext, Program
from ..kmachine.schema import PointBatch, UpdatePlan
from ..points.dataset import Shard

__all__ = ["MutationRecord", "UpdateOutput", "UpdateProgram"]


@dataclass
class UpdateOutput:
    """Per-machine result of one update episode."""

    new_load: int
    inserted: int
    deleted: int
    is_leader: bool
    #: leader only: post-update shard sizes for all machines
    loads: tuple[int, ...] | None = None
    #: leader only: total deletions across machines
    deleted_total: int | None = None
    #: leader only: distinct non-leader machines that received an envelope
    insert_targets: int | None = None


@dataclass
class MutationRecord:
    """Session-level accounting for one mutation episode.

    Collected by :class:`~repro.serve.session.ClusterSession` in
    ``session.mutations`` so tests and the conformance monitor can
    check each episode against its message budget after the fact.
    """

    kind: str  # "update" | "rebalance"
    epoch: int
    messages: int
    rounds: int
    inserts: int = 0
    deletes: int = 0
    insert_targets: int = 0
    #: rebalance only: non-degenerate Algorithm 1 runs
    splitters_run: int = 0
    #: rebalance only: points that changed machines
    moved_points: int = 0
    #: global point count after the episode (sizes the selection bound)
    n_after: int = 0
    ratio_before: float = 0.0
    ratio_after: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (CLI report / benchmark)."""
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "messages": self.messages,
            "rounds": self.rounds,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "insert_targets": self.insert_targets,
            "splitters_run": self.splitters_run,
            "moved_points": self.moved_points,
            "n_after": self.n_after,
            "ratio_before": self.ratio_before,
            "ratio_after": self.ratio_after,
        }


class UpdateProgram(Program):
    """One batched insert/delete episode over the resident shards.

    Configuration is leader-routed: insert ids are drawn by the session
    (globally unique against the live dataset) and carried here; the
    protocol decides placement from the load report.
    """

    name = "dyn-update"

    def __init__(
        self,
        leader: int,
        *,
        insert_ids: np.ndarray,
        insert_points: np.ndarray,
        insert_labels: np.ndarray | None = None,
        delete_ids: tuple[int, ...] = (),
        byz: ByzConfig | None = None,
    ) -> None:
        self.leader = leader
        self.insert_ids = np.asarray(insert_ids, dtype=np.int64)
        self.insert_points = np.asarray(insert_points, dtype=np.float64)
        if self.insert_points.ndim == 1:
            self.insert_points = self.insert_points.reshape(len(self.insert_ids), -1)
        self.insert_labels = insert_labels
        self.delete_ids = tuple(int(i) for i in delete_ids)
        self.byz = byz

    def run(self, ctx: MachineContext) -> Generator[None, None, UpdateOutput]:
        """Per-machine body: load report, routed apply, ack."""
        if self.byz is not None and ctx.rank in self.byz.quarantined:
            # Fenced off by the session: hold no traffic, take no
            # inserts.  (Quarantined ranks are normally also crashed in
            # the simulator, so this guard is belt-and-braces.)
            return UpdateOutput(
                new_load=len(ctx.local), inserted=0, deleted=0, is_leader=False
            )
        with ctx.obs.span(tag("dyn", "update")):
            if ctx.rank == self.leader:
                output = yield from self._leader(ctx, ctx.local)
            else:
                output = yield from self._worker(ctx, ctx.local)
        return output

    # -- roles ---------------------------------------------------------
    def _leader(
        self, ctx: MachineContext, shard: Shard
    ) -> Generator[None, None, UpdateOutput]:
        k = ctx.k
        t_load = tag("dyn", "up", "load")
        t_plan = tag("dyn", "up", "plan")
        t_ins = tag("dyn", "up", "ins")
        t_done = tag("dyn", "up", "done")

        with ctx.obs.span(tag("dyn", "load-report")):
            loads = np.zeros(k, dtype=np.int64)
            loads[ctx.rank] = len(shard)
            if k > 1 and self.byz is not None:
                # Tolerate silent liars and clip inflated reports: load
                # numbers only steer the balance heuristic, so robust
                # defaults beat hanging on a missing message.  A silent
                # worker routes as if median-loaded.
                tracker = suspicions(ctx)
                peers = self.byz.workers(k, ctx.rank)
                heard = yield from recv_from(
                    ctx, t_load, peers, self.byz.timeout_rounds
                )
                values = [len(shard)]
                for src, payload in heard.items():
                    try:
                        loads[src] = max(0, int(payload))
                        values.append(int(loads[src]))
                    except (TypeError, ValueError):
                        tracker.accuse(src, "malformed load report")
                        loads[src] = -1
                default = int(np.median(values)) if values else 0
                for src in peers:
                    if src not in heard:
                        tracker.accuse(src, "silent load report")
                        loads[src] = -1
                loads[loads < 0] = default
                loads = robust_loads(loads, f=self.byz.f)
            elif k > 1:
                replies = yield from ctx.recv(t_load, k - 1)
                for msg in replies:
                    loads[msg.src] = int(msg.payload)

        # Greedy least-loaded routing: deterministic (argmin takes the
        # lowest rank on ties), keeps inserts from piling onto already
        # heavy machines.  Quarantined ranks are routed around — a
        # fenced machine must never become the home of a live point.
        working = loads.copy()
        if self.byz is not None and self.byz.quarantined:
            working[list(self.byz.quarantined)] = np.iinfo(np.int64).max // 2
        assignment = np.empty(len(self.insert_ids), dtype=np.int64)
        for i in range(len(self.insert_ids)):
            target = int(np.argmin(working))
            assignment[i] = target
            working[target] += 1
        counts = np.bincount(assignment, minlength=k) if len(assignment) else (
            np.zeros(k, dtype=np.int64)
        )

        targets = 0
        if k > 1:
            ctx.broadcast(
                t_plan,
                UpdatePlan(
                    insert_counts=tuple(int(c) for c in counts),
                    delete_ids=self.delete_ids,
                ),
            )
            for dst in range(k):
                if dst == ctx.rank or counts[dst] == 0:
                    continue
                mask = assignment == dst
                ctx.send(dst, t_ins, self._envelope(mask))
                targets += 1

        deleted_here = self._apply(
            shard, assignment == ctx.rank
        )

        deleted_total = deleted_here
        new_loads = loads.copy()
        new_loads[ctx.rank] = len(shard)
        if k > 1 and self.byz is not None:
            tracker = suspicions(ctx)
            peers = self.byz.workers(k, ctx.rank)
            acks = yield from recv_from(ctx, t_done, peers, self.byz.timeout_rounds)
            for src, payload in acks.items():
                try:
                    d_i, n_i = payload
                    deleted_total += max(0, int(d_i))
                    new_loads[src] = max(0, int(n_i))
                except (TypeError, ValueError):
                    tracker.accuse(src, "malformed update ack")
            for src in peers:
                if src not in acks:
                    tracker.accuse(src, "silent update ack")
        elif k > 1:
            acks = yield from ctx.recv(t_done, k - 1)
            for msg in acks:
                d_i, n_i = msg.payload
                deleted_total += int(d_i)
                new_loads[msg.src] = int(n_i)

        return UpdateOutput(
            new_load=len(shard),
            inserted=int(counts[ctx.rank]),
            deleted=deleted_here,
            is_leader=True,
            loads=tuple(int(x) for x in new_loads),
            deleted_total=deleted_total,
            insert_targets=targets,
        )

    def _worker(
        self, ctx: MachineContext, shard: Shard
    ) -> Generator[None, None, UpdateOutput]:
        t_load = tag("dyn", "up", "load")
        t_plan = tag("dyn", "up", "plan")
        t_ins = tag("dyn", "up", "ins")
        t_done = tag("dyn", "up", "done")

        with ctx.obs.span(tag("dyn", "load-report")):
            ctx.send(self.leader, t_load, len(shard))
        if self.byz is not None:
            heard = yield from recv_from(
                ctx, t_plan, [self.leader], self.byz.op_budget(ctx.k)
            )
            plan = heard.get(self.leader)
            if not isinstance(plan, UpdatePlan) or len(plan.insert_counts) != ctx.k:
                raise ByzantineError(
                    f"machine {ctx.rank}: update leader {self.leader} sent "
                    f"no usable plan",
                    suspects=(self.leader,),
                )
        else:
            plan_msg = yield from ctx.recv_one(t_plan, src=self.leader)
            plan = plan_msg.payload

        inserted = 0
        my_count = plan.insert_counts[ctx.rank]
        batch: PointBatch | None = None
        if my_count > 0 and self.byz is not None:
            heard = yield from recv_from(
                ctx, t_ins, [self.leader], self.byz.op_budget(ctx.k)
            )
            env = heard.get(self.leader)
            if isinstance(env, PointBatch):
                batch = env
            else:
                # The envelope was silenced or forged away.  Apply what
                # we have; the session's shard-integrity audit detects
                # the lost inserts and repairs from its mirror.
                suspicions(ctx).accuse(self.leader, "missing insert envelope")
        elif my_count > 0:
            env = yield from ctx.recv_one(t_ins, src=self.leader)
            batch = env.payload

        deleted = shard.remove_ids(np.asarray(plan.delete_ids, dtype=np.int64))
        if batch is not None and len(batch):
            shard.add_points(batch.coords, batch.ids, batch.labels)
            inserted = len(batch)

        ctx.send(self.leader, t_done, (deleted, len(shard)))
        yield  # the ack's round
        return UpdateOutput(
            new_load=len(shard),
            inserted=inserted,
            deleted=deleted,
            is_leader=False,
        )

    # -- helpers -------------------------------------------------------
    def _envelope(self, mask: np.ndarray) -> PointBatch:
        return PointBatch(
            ids=self.insert_ids[mask],
            coords=self.insert_points[mask],
            labels=None if self.insert_labels is None else self.insert_labels[mask],
        )

    def _apply(self, shard: Shard, own_mask: np.ndarray) -> int:
        """Leader-local apply: its deletes plus its own routed inserts."""
        deleted = shard.remove_ids(np.asarray(self.delete_ids, dtype=np.int64))
        if own_mask.any():
            env = self._envelope(own_mask)
            shard.add_points(env.coords, env.ids, env.labels)
        return deleted
