"""Datasets and per-machine shards.

A :class:`Dataset` is the global (training) set: an ``(n, d)`` point
array with optional labels and the random unique IDs of
:mod:`repro.points.ids`.  A :class:`Shard` is what one machine holds
after partitioning — the model's "each machine has O(n/k) points,
adversarially distributed".  Shards carry the same arrays restricted
to the machine's rows, so the global point with ID ``i`` is
recoverable from whichever machine owns it once a protocol outputs IDs.
Shards never alias their dataset; the shards of one
:func:`~repro.points.partition.shard_dataset` call are read-only row
slices of one shared copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ids import all_distinct, draw_unique_ids

__all__ = ["Dataset", "Shard", "make_dataset"]


@dataclass
class Dataset:
    """The global labelled point set.

    Attributes
    ----------
    points:
        ``float64`` array of shape ``(n, d)`` (1-D inputs are stored
        as ``(n, 1)``).
    ids:
        Distinct ``int64`` identifiers, one per point (paper §2:
        random IDs from ``[1, n^3]``).
    labels:
        Optional per-point labels (any 1-D array) for the
        classification / regression application layer.
    """

    points: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.points.ndim != 2:
            raise ValueError(f"points must be 1-D or 2-D, got shape {self.points.shape}")
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.shape != (len(self.points),):
            raise ValueError(
                f"ids shape {self.ids.shape} does not match {len(self.points)} points"
            )
        if not all_distinct(self.ids):
            raise ValueError("point ids must be distinct")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.points):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.points)} points"
                )

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        """Point dimensionality ``d``."""
        return self.points.shape[1]

    def take(self, indices: np.ndarray) -> "Shard":
        """Build a shard from a copy of the integer row ``indices``.

        The selected rows are copied (``np.take`` along axis 0, much
        faster than 2-D fancy indexing), so the shard never aliases the
        dataset; untouched rows are not read.
        :func:`~repro.points.partition.shard_dataset` calls this once
        per sharding, over all machines' index sets, and slices the
        result.
        """
        return Shard(
            points=np.take(self.points, indices, axis=0),
            ids=np.take(self.ids, indices),
            labels=None if self.labels is None else np.take(self.labels, indices, axis=0),
        )

    def label_of(self, point_id: int) -> object:
        """Label of the point with identifier ``point_id``.

        O(n) lookup intended for verification in tests; the protocols
        themselves never need a global reverse index.
        """
        if self.labels is None:
            raise ValueError("dataset has no labels")
        pos = np.nonzero(self.ids == point_id)[0]
        if pos.size == 0:
            raise KeyError(f"no point with id {point_id}")
        return self.labels[pos[0]]

    def add(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray | None = None,
    ) -> None:
        """Append new points with caller-supplied distinct ids.

        The dynamic-data layer mirrors live inserts here so
        verification oracles always see the *current* global set.
        Labels are required iff the dataset is labelled.  The collision
        check is one vectorised scan of the live ids against the batch
        (``np.isin`` in that direction sorts nothing for small batches),
        not a sort of the whole set.
        """
        points, ids, labels = _check_batch(points, ids, labels, self.dim)
        if np.isin(self.ids, ids).any():
            raise ValueError("insert ids collide with existing point ids")
        if (labels is None) != (self.labels is None):
            raise ValueError("labels must be supplied iff the dataset is labelled")
        self.points = np.concatenate([self.points, points])
        self.ids = np.concatenate([self.ids, ids])
        if self.labels is not None:
            self.labels = np.concatenate([self.labels, labels])

    def remove_ids(self, ids: np.ndarray) -> int:
        """Delete the points with the given ids; returns how many existed."""
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.isin(self.ids, ids)
        removed = int(mask.sum())
        if removed:
            keep = ~mask
            self.points = self.points[keep]
            self.ids = self.ids[keep]
            if self.labels is not None:
                self.labels = self.labels[keep]
        return removed


@dataclass
class Shard:
    """One machine's local slice of a :class:`Dataset`.

    The query protocols treat a shard as read-only input; derived
    candidate sets are fresh arrays, and answer ids map back to rows
    through the per-query candidates, so a shard memoizes nothing.
    The dynamic-data layer (:mod:`repro.dyn`) mutates shards between
    query episodes through :meth:`add_points` / :meth:`remove_ids`.

    Shards made by :func:`~repro.points.partition.shard_dataset` are
    read-only row slices of one buffer shared with their siblings, so
    their arrays must never be written in place (numpy raises if they
    are).  The two mutators never do: they rebind ``points``, ``ids``
    and ``labels`` to fresh arrays.
    """

    points: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None = None
    #: scratch attribute letting experiments attach metadata
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.shape != (len(self.points),):
            raise ValueError("shard ids/points length mismatch")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.points):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.points)} points"
                )

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        """Point dimensionality ``d``."""
        return self.points.shape[1]

    def add_points(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray | None = None,
    ) -> None:
        """Append points to this shard (migration / live insert).

        Id uniqueness across machines is the caller's contract (the
        update protocol routes each id to exactly one machine); within
        the shard it is enforced here, by one vectorised scan of the
        shard's ids against the batch (as in :meth:`Dataset.add`).
        """
        points, ids, labels = _check_batch(points, ids, labels, self.dim)
        if np.isin(self.ids, ids).any():
            raise ValueError("insert ids collide with shard's existing ids")
        if (labels is None) != (self.labels is None):
            raise ValueError("labels must be supplied iff the shard is labelled")
        self.points = np.concatenate([self.points, points])
        self.ids = np.concatenate([self.ids, ids])
        if self.labels is not None:
            self.labels = np.concatenate([self.labels, labels])

    def remove_ids(self, ids: np.ndarray) -> int:
        """Drop locally-held points by id; returns how many were held.

        Ids not present on this machine are ignored (a delete batch is
        broadcast; each machine removes its own rows).
        """
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.isin(self.ids, ids)
        removed = int(mask.sum())
        if removed:
            keep = ~mask
            self.points = self.points[keep]
            self.ids = self.ids[keep]
            if self.labels is not None:
                self.labels = self.labels[keep]
        return removed


def _check_batch(
    points: np.ndarray,
    ids: np.ndarray,
    labels: np.ndarray | None,
    dim: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate one insert/migration batch against a target of ``dim``."""
    points, labels = _check_points(points, labels, dim)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (len(points),):
        raise ValueError(f"ids shape {ids.shape} for {len(points)} points")
    if not all_distinct(ids):
        raise ValueError("batch ids must be distinct")
    return points, ids, labels


def _check_points(
    points: np.ndarray,
    labels: np.ndarray | None,
    dim: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The coordinate and label half of :func:`_check_batch` (no ids yet)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        # With a known dim there is no ambiguity: a length-d vector is
        # one point unless the target is 1-dimensional.
        points = points[:, None] if dim == 1 else points[None, :]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"batch shape {points.shape} does not match dim {dim}")
    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) != len(points):
            raise ValueError(f"{len(labels)} labels for {len(points)} points")
    return points, labels


def make_dataset(
    points: np.ndarray | Sequence[float],
    labels: np.ndarray | Sequence | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> Dataset:
    """Wrap raw points (and optional labels) into a :class:`Dataset`.

    Assigns the paper's random unique IDs using ``rng`` (or a fresh
    generator from ``seed``).
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    generator = rng if rng is not None else np.random.default_rng(seed)
    ids = draw_unique_ids(generator, len(arr), n_total=len(arr))
    return Dataset(points=arr, ids=ids,
                   labels=None if labels is None else np.asarray(labels))
