"""Differential property test: :class:`Network` accounting vs brute force.

``Network`` keeps running counters (remaining bits per link, total
queued bits, messages in flight) instead of re-summing its queues.
This test drives it and a deliberately naive reference — which stores
``[message, remaining_bits]`` pairs, visits every link each step and
re-sums every queue for every statistic — through the same random
sequences of ``submit``/``step``/``purge_machine``/``drop_all``, under
all three bandwidth policies, with and without a :class:`FaultPlan`
that drops, duplicates, corrupts and reorders.  Both sides own an
injector seeded from the same plan and consult it in the same order,
so every fault decision agrees.  Message sizes run up to 4.5 times
the link bandwidth, so partially transmitted heads (remaining bits
below the message's bits) are routinely queued, reordered around and
purged.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmachine import BandwidthExceededError, FaultPlan
from repro.kmachine.faults import FaultInjector
from repro.kmachine.message import Message
from repro.kmachine.network import LinkStats, Network

K = 3


class ReferenceNetwork:
    """Brute-force model of the queue/strict/unbounded link semantics."""

    def __init__(self, k, bandwidth_bits, policy, injector):
        self.k = k
        self.bandwidth_bits = bandwidth_bits
        self.policy = "unbounded" if bandwidth_bits is None else policy
        self.injector = injector
        self.queues = {
            (s, d): [] for s, d in itertools.permutations(range(k), 2)
        }
        self.used = {}
        self.stats = {}
        self.total_messages = 0
        self.total_bits = 0
        self.last_step_max_link_bits = 0
        self.last_step_delivered = 0
        self.last_step_max_dst_messages = 0

    def submit(self, msg):
        key = (msg.src, msg.dst)
        if self.policy == "strict":
            used = self.used.get(key, 0)
            if used + msg.bits > self.bandwidth_bits:
                raise BandwidthExceededError("over budget")
            self.used[key] = used + msg.bits
        copies = [msg] if self.injector is None else self.injector.on_submit(msg)
        if not copies:
            self.stats.setdefault(key, LinkStats()).dropped += 1
        for copy in copies:
            self._enqueue(copy)

    def _enqueue(self, msg):
        key = (msg.src, msg.dst)
        queue = self.queues[key]
        queue.append([msg, msg.bits])
        head_partial = queue[0][1] != queue[0][0].bits
        if (
            self.injector is not None
            and len(queue) >= 2
            and not (len(queue) == 2 and head_partial)
            and self.injector.wants_reorder(msg.src, msg.dst)
        ):
            queue[-1], queue[-2] = queue[-2], queue[-1]
        stats = self.stats.setdefault(key, LinkStats())
        stats.messages += 1
        stats.bits += msg.bits
        stats.max_queue_messages = max(stats.max_queue_messages, len(queue))
        stats.max_queue_bits = max(stats.max_queue_bits, sum(r for _, r in queue))
        self.total_messages += 1
        self.total_bits += msg.bits

    def step(self):
        self.used.clear()
        deliveries = {}
        max_link = 0
        for key in sorted(self.queues):
            queue = self.queues[key]
            if not queue:
                continue
            self.stats[key].busy_rounds += 1
            budget = None if self.policy == "unbounded" else self.bandwidth_bits
            sent = 0
            while queue and (budget is None or budget > 0):
                entry = queue[0]
                take = entry[1] if budget is None else min(budget, entry[1])
                if budget is not None:
                    budget -= take
                entry[1] -= take
                sent += take
                if entry[1]:
                    break
                queue.pop(0)
                deliveries.setdefault(entry[0].dst, []).append(entry[0])
            max_link = max(max_link, sent)
        self.last_step_max_link_bits = max_link
        self.last_step_delivered = sum(len(v) for v in deliveries.values())
        self.last_step_max_dst_messages = max(
            (len(v) for v in deliveries.values()), default=0
        )
        return deliveries

    def _discard(self, keys):
        dropped = []
        for key in sorted(keys):
            queue = self.queues[key]
            if queue:
                dropped.extend(m for m, _ in queue)
                self.stats[key].dropped += len(queue)
                queue.clear()
        return dropped

    def purge_machine(self, rank):
        return self._discard(key for key in self.queues if rank in key)

    def drop_all(self):
        self.used.clear()
        return self._discard(self.queues)

    def queued_bits(self):
        return sum(r for queue in self.queues.values() for _, r in queue)

    def in_flight(self):
        return sum(len(queue) for queue in self.queues.values())


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 1),  # few busy links, so they are often reused
            st.integers(1, K - 1),
            st.integers(1, 3),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("purge"), st.integers(0, K - 1)),
        st.tuples(st.just("drop_all")),
    ),
    min_size=1,
    max_size=60,
)

plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**16),
        drop=st.sampled_from([0.0, 0.2]),
        duplicate=st.sampled_from([0.0, 0.3]),
        corrupt=st.sampled_from([0.0, 0.1]),
        reorder=st.sampled_from([0.0, 0.5, 1.0]),
    ),
)


def assert_same_state(net, ref):
    assert net.queued_bits() == ref.queued_bits()
    assert net.in_flight() == ref.in_flight()
    assert net.link_stats == ref.stats
    assert net.total_messages == ref.total_messages
    assert net.total_bits == ref.total_bits


@pytest.mark.parametrize("policy", ["queue", "strict", "unbounded"])
@given(
    ops=ops,
    plan=plans,
    bandwidth=st.sampled_from([16, 48, 64]),
    bit_scale=st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_network_accounting_matches_brute_force(policy, ops, plan, bandwidth, bit_scale):
    bandwidth_bits = None if policy == "unbounded" else bandwidth
    net = Network(K, bandwidth_bits=bandwidth_bits, policy=policy)
    ref = ReferenceNetwork(K, bandwidth_bits, policy, None)
    if plan is not None:
        net.fault_injector = FaultInjector(plan)
        ref.injector = FaultInjector(plan)
    for n, op in enumerate(ops):
        if op[0] == "submit":
            _, src, offset, size = op
            bits = size * bit_scale * bandwidth // 2 - n % 5
            msg = Message(src=src, dst=(src + offset) % K, tag="t", payload=n, bits=bits)
            outcomes = []
            for side in (net, ref):
                try:
                    side.submit(msg)
                    outcomes.append(None)
                except BandwidthExceededError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "step":
            assert list(net.step().items()) == list(ref.step().items())
            assert net.last_step_max_link_bits == ref.last_step_max_link_bits
            assert net.last_step_delivered == ref.last_step_delivered
            assert net.last_step_max_dst_messages == ref.last_step_max_dst_messages
        elif op[0] == "purge":
            assert net.purge_machine(op[1]) == ref.purge_machine(op[1])
        else:
            assert net.drop_all() == ref.drop_all()
        assert_same_state(net, ref)
    while ref.in_flight():
        assert list(net.step().items()) == list(ref.step().items())
        assert_same_state(net, ref)
    assert net.step() == {}


def test_partial_head_counts_remaining_bits_only():
    """A head mid-transmission contributes its remaining bits, not all."""
    net = Network(2, bandwidth_bits=32)
    net.submit(Message(src=0, dst=1, tag="t", payload=0, bits=80))
    net.submit(Message(src=0, dst=1, tag="t", payload=1, bits=16))
    assert net.queued_bits() == 96
    assert net.step() == {}
    assert (net.queued_bits(), net.in_flight()) == (64, 2)
    net.submit(Message(src=0, dst=1, tag="t", payload=2, bits=40))
    assert net.link_stats[(0, 1)].max_queue_bits == 104
    assert net.step() == {}
    assert net.queued_bits() == 72
    [purged_head, *_] = net.purge_machine(1)
    assert purged_head.payload == 0
    assert (net.queued_bits(), net.in_flight()) == (0, 0)
    assert net.link_stats[(0, 1)].dropped == 3
