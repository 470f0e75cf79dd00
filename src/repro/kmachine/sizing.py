"""Bit-size accounting for message payloads.

The k-machine model charges bandwidth in *bits*: each link carries
``B = Θ(log n)`` bits per round.  To enforce that mechanically the
network needs to know how large every payload is.  This module defines
the sizing policy used throughout the reproduction.

The paper's convention (Section 2) is that a point value or a distance
fits in ``O(log n)`` bits and a point ID (drawn from ``[1, n^3]``)
fits in ``O(log n)`` bits as well.  We therefore size payloads in terms
of a configurable *word* size: every scalar costs one word, and
containers cost the sum of their parts plus a small per-message header.

The default word size is 64 bits, matching the ``float64``/``int64``
values the NumPy-backed protocols actually exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SizingPolicy", "DEFAULT_POLICY", "payload_bits"]

#: Bits charged for a message header (tag + routing metadata).
HEADER_BITS = 16


@dataclass(frozen=True)
class SizingPolicy:
    """How payloads are converted to a bit count.

    Parameters
    ----------
    word_bits:
        Bits charged per scalar (int, float, bool counts as one word
        unless it is a bare ``bool``, which costs 1 bit).
    header_bits:
        Fixed per-message overhead (tag, source, destination).
    """

    word_bits: int = 64
    header_bits: int = HEADER_BITS

    def scalar_bits(self) -> int:
        """Bits charged for a single numeric scalar."""
        return self.word_bits

    def measure(self, payload: Any) -> int:
        """Return the number of bits ``payload`` occupies on the wire.

        The measurement is structural: scalars cost one word, booleans
        and ``None`` cost one bit, strings cost 8 bits per character,
        and containers (tuples, lists, dicts, NumPy arrays) cost the
        sum of their elements.  Unknown objects fall back to one word,
        which keeps accounting conservative for small sentinel objects.
        """
        return _measure(payload, self)


def _measure(obj: Any, policy: SizingPolicy) -> int:
    # Fast path on the exact types protocols send most; ``bool``, NumPy
    # scalars and subclasses fall through to the isinstance chain below.
    cls = type(obj)
    if cls is int or cls is float:
        return policy.word_bits
    if cls is tuple or cls is list:
        total = 0
        for item in obj:
            item_cls = type(item)
            if item_cls is int or item_cls is float:
                total += policy.word_bits
            else:
                total += _measure(item, policy)
        return total
    if obj is None:
        return 1
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return 1
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return policy.word_bits
    if isinstance(obj, complex):
        return 2 * policy.word_bits
    if isinstance(obj, str):
        return 8 * len(obj)
    if isinstance(obj, bytes):
        return 8 * len(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.bool_:
            return int(obj.size)
        return int(obj.size) * policy.word_bits
    if isinstance(obj, dict):
        return sum(_measure(k, policy) + _measure(v, policy) for k, v in obj.items())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(_measure(item, policy) for item in obj)
    # Dataclass-like payloads expose __dict__; charge for the fields.
    if hasattr(obj, "__dict__") and obj.__dict__:
        return _measure(obj.__dict__, policy)
    if getattr(obj, "__slots__", None):
        return sum(
            _measure(getattr(obj, name), policy)
            for name in obj.__slots__
            if hasattr(obj, name)
        )
    return policy.word_bits


#: Module-level default policy (64-bit words, 16-bit headers).
DEFAULT_POLICY = SizingPolicy()


def payload_bits(payload: Any, policy: SizingPolicy | None = None) -> int:
    """Measure ``payload`` in bits under ``policy`` (default policy if None)."""
    return (policy or DEFAULT_POLICY).measure(payload)
