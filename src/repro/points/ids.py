"""Random unique point identifiers and tie-breaking keys.

Section 2 of the paper handles two practical issues with one trick:

* high-dimensional points are never shipped over the network — only a
  compact *ID* plus the scalar distance to the query travels; and
* non-distinct points (equal distances) are disambiguated by breaking
  ties on IDs.

IDs are drawn uniformly from ``[1, n^3]``, which makes all ``n`` IDs
distinct with probability at least ``1 - 1/n`` (birthday bound).  This
module draws the IDs, verifies uniqueness (re-drawing on the rare
collision, so the library is Las Vegas where the paper is content with
w.h.p.), and defines the lexicographic ``(value, id)`` key used by
every comparison in the selection protocols.

Every distinctness check on ids goes through :func:`all_distinct`: one
sort and one comparison of neighbours.  ``np.unique(ids).size`` gives
the same answer, but numpy >= 2.3 runs it as a hash pass followed by a
sort of the result, which on distinct random ids (the common case
here) costs over ten times one sort from n = 16,000 up.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "all_distinct",
    "draw_unique_ids",
    "id_space",
    "Keyed",
    "keyed_array",
    "MINUS_INF_KEY",
    "PLUS_INF_KEY",
]


def id_space(n_total: int) -> int:
    """Upper bound (inclusive) of the ID space for ``n_total`` points.

    The paper uses ``n^3``; we floor it at 2^20 (tiny test inputs still
    get a comfortable collision probability) and cap it at 2^62 so IDs
    stay valid ``int64`` — for n beyond 2^20 the collision probability
    at the cap is still below n²/2^62 ≤ 2^-22.
    """
    return min(max(int(n_total) ** 3, 1 << 20), 1 << 62)


def all_distinct(values: np.ndarray) -> bool:
    """True iff no two entries of the 1-D integer array ``values`` are equal."""
    ordered = np.sort(values)
    return not bool((ordered[1:] == ordered[:-1]).any())


def draw_unique_ids(
    rng: np.random.Generator, count: int, n_total: int | None = None, max_redraws: int = 64
) -> np.ndarray:
    """Draw ``count`` distinct random IDs from ``[1, id_space(n_total)]``.

    Parameters
    ----------
    rng:
        Source of randomness (a machine's private stream, or an
        experiment-level stream when IDs are assigned centrally).
    count:
        Number of IDs required.
    n_total:
        Global number of points (defaults to ``count``); sets the ID
        space so the w.h.p. guarantee is relative to the *global* n,
        matching the paper even when each machine draws only its own.
    max_redraws:
        Collision retries before falling back to offset-distinct IDs.

    Returns
    -------
    ``int64`` array of ``count`` distinct IDs.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    hi = id_space(n_total if n_total is not None else count)
    for _ in range(max_redraws):
        ids = rng.integers(1, hi + 1, size=count, dtype=np.int64)
        if all_distinct(ids):
            return ids
    # Astronomically unlikely; construct distinct IDs deterministically.
    base = rng.integers(1, hi - count, dtype=np.int64)
    return base + np.arange(count, dtype=np.int64)


class Keyed:
    """A comparison key ``(value, id)`` with lexicographic order.

    This is *the* element type of the selection protocols: all points
    are reduced to a distance ``value`` plus a unique ``id``, and every
    comparison (pivot ordering, range counting, min/max) happens on
    the pair, so duplicate distances never produce ambiguous answers.

    Implemented as a lightweight immutable pair rather than a tuple so
    message sizing charges exactly two words and reprs stay readable.
    """

    __slots__ = ("value", "id")

    def __init__(self, value: float, id: int) -> None:
        self.value = float(value)
        self.id = int(id)

    def as_tuple(self) -> tuple[float, int]:
        """The underlying ``(value, id)`` pair."""
        return (self.value, self.id)

    def __lt__(self, other: "Keyed") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __le__(self, other: "Keyed") -> bool:
        return self.as_tuple() <= other.as_tuple()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Keyed) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Keyed({self.value!r}, id={self.id})"


#: Sentinels bounding every legal key (ids are >= 1, values finite).
MINUS_INF_KEY = Keyed(-np.inf, 0)
PLUS_INF_KEY = Keyed(np.inf, np.iinfo(np.int64).max)


def keyed_array(values: Iterable[float], ids: Iterable[int]) -> np.ndarray:
    """Build a structured array of ``(value, id)`` rows sorted lexicographically.

    The protocols keep per-machine candidate sets in this layout so
    range counting is a vectorized comparison instead of a Python loop.
    Fields: ``value`` (f8), ``id`` (i8).
    """
    vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                      dtype=np.float64)
    idarr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids,
                       dtype=np.int64)
    if vals.shape != idarr.shape:
        raise ValueError(f"values shape {vals.shape} != ids shape {idarr.shape}")
    out = np.empty(vals.shape[0], dtype=[("value", "f8"), ("id", "i8")])
    out["value"] = vals
    out["id"] = idarr
    out.sort(order=("value", "id"))
    return out
