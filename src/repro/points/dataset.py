"""Datasets and per-machine shards.

A :class:`Dataset` is the global (training) set: an ``(n, d)`` point
array with optional labels and the random unique IDs of
:mod:`repro.points.ids`.  A :class:`Shard` is what one machine holds
after partitioning — the model's "each machine has O(n/k) points,
adversarially distributed".  Shards carry the same arrays restricted
to the machine's rows, so the global point with ID ``i`` is
recoverable from whichever machine owns it once a protocol outputs IDs.

Ownership.  :meth:`Dataset.take` copies a shard's ``ids`` and
``labels`` at once (they are small) but not its coordinates: the shard
keeps the row indices ``rows`` into the dataset's point array and
gathers its own copy only when something asks for :attr:`Shard.points`
(or pickles it, or mutates it).  The local scan never asks: it gathers
cache-sized blocks into one reused buffer
(:meth:`Shard.row_blocks`), so a one-shot query reads each row once
and allocates no copy of the corpus.  Such a shard borrows the
dataset's buffer, so it must not outlive it: a one-shot driver's shards
live for one call, and long-lived holders
(:class:`~repro.serve.session.ClusterSession`) call
:meth:`Shard.gather` once, in setup.  Either way a shard never aliases
its dataset: gathered arrays are fresh copies.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Iterator, Sequence

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
    ids_distinct:
        Init-only: the caller has already proved ``ids`` distinct, so
        the check is skipped.  Only :func:`make_dataset` sets it, for
        the ids :func:`~repro.points.ids.draw_unique_ids` drew.
    """

    points: np.ndarray
    ids: np.ndarray
    labels: np.ndarray | None = None
    _: KW_ONLY
    ids_distinct: InitVar[bool] = False

    def __post_init__(self, ids_distinct: bool) -> None:
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
        if not ids_distinct and not all_distinct(self.ids):
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
        """Build a shard of the integer row ``indices``.

        ``ids`` and ``labels`` are copied now (``np.take``); the
        coordinates stay in this dataset's point array until the shard
        gathers them (see the module docstring), so untouched rows are
        never read and no coordinate is copied before it is needed.
        """
        rows = np.asarray(indices, dtype=np.intp)
        return Shard(
            points=self.points,
            ids=np.take(self.ids, rows),
            labels=None if self.labels is None else np.take(self.labels, rows, axis=0),
            rows=rows,
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


class Shard:
    """One machine's local slice of a :class:`Dataset`.

    The query protocols treat a shard as read-only input; derived
    candidate sets are fresh arrays, and answer ids map back to rows
    through the per-query candidates, so a shard memoizes nothing.
    The dynamic-data layer (:mod:`repro.dyn`) mutates shards between
    query episodes through :meth:`add_points` / :meth:`remove_ids`.

    One representation, two states.  A shard built from arrays, or
    after :meth:`gather`, owns its ``(n_i, d)`` coordinates and has
    ``rows is None``.  A shard from :meth:`Dataset.take` instead holds
    ``rows``, indices into its dataset's point array, until the first
    access to :attr:`points` (or :meth:`gather`, a pickle or a
    mutation) copies them; :meth:`row_blocks` and :meth:`points_at`
    read the rows without that copy.  A shard pickles as its own rows
    only, never its dataset's array.

    Shards made by :func:`~repro.points.partition.shard_dataset` are
    :meth:`freeze`-d: their arrays are read-only (numpy raises on an
    in-place write), so a stray write cannot change what a later scan
    of the same shard sees.  The two mutators never write in place:
    they rebind ``points``, ``ids`` and ``labels`` to fresh arrays.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray | None = None,
        meta: dict | None = None,
        *,
        rows: np.ndarray | None = None,
    ) -> None:
        #: row indices into ``points`` while not gathered, else ``None``
        self.rows = rows
        if rows is None:
            points = np.asarray(points, dtype=np.float64)
            if points.ndim == 1:
                points = points[:, None]
        self._points = points
        self._writeable = True
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.ids.shape != (len(self),):
            raise ValueError("shard ids/points length mismatch")
        if labels is not None:
            labels = np.asarray(labels)
            if len(labels) != len(self):
                raise ValueError(f"{len(labels)} labels for {len(self)} points")
        self.labels = labels
        #: scratch attribute letting experiments attach metadata
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return len(self._points) if self.rows is None else len(self.rows)

    @property
    def dim(self) -> int:
        """Point dimensionality ``d``."""
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        """The ``(n_i, d)`` coordinates, gathered on first access."""
        self.gather()
        return self._points

    def gather(self) -> None:
        """Copy this shard's rows out of its dataset (no-op once gathered)."""
        if self.rows is not None:
            gathered = np.take(self._points, self.rows, axis=0)
            gathered.setflags(write=self._writeable)
            self._points, self.rows = gathered, None

    def freeze(self) -> None:
        """Mark every array read-only, including a later gather's copy."""
        self._writeable = False
        for array in (self.ids, self.labels, None if self.rows is not None else self._points):
            if array is not None:
                array.setflags(write=False)

    def points_at(self, pos: np.ndarray) -> np.ndarray:
        """A copy of the coordinates of local rows ``pos``, gathering only those."""
        if self.rows is None:
            return self._points[pos]
        return np.take(self._points, self.rows[pos], axis=0)

    def row_blocks(self, nbytes: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(lo, block)``: the coordinates of rows ``lo, lo + 1, ...``.

        For a shard that has not gathered (``rows`` is set).  Each
        block is about ``nbytes`` of rows gathered into one reused
        buffer, so a block is valid only until the next one is drawn.
        """
        n, dim = len(self.rows), self.dim
        step = max(1, nbytes // (8 * max(1, dim)))
        buf = np.empty((min(step, n), dim))
        for lo in range(0, n, step):
            block = buf[: min(step, n - lo)]
            # ``rows`` were bounds-checked by the ids take in
            # :meth:`Dataset.take`; mode="clip" writes straight into
            # ``out`` (the default mode="raise" buffers it).
            self._points.take(self.rows[lo : lo + step], axis=0, out=block, mode="clip")
            yield lo, block

    def __getstate__(self) -> dict:
        self.gather()  # ship this shard's rows, not the dataset's array
        return self.__dict__

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if not self._writeable:
            self.freeze()

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
        self._points = np.concatenate([self.points, points])
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
            self._points = self.points[keep]
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
    generator from ``seed``).  :func:`~repro.points.ids.draw_unique_ids`
    already checks them, so the dataset does not check them again.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    generator = rng if rng is not None else np.random.default_rng(seed)
    ids = draw_unique_ids(generator, len(arr), n_total=len(arr))
    return Dataset(points=arr, ids=ids,
                   labels=None if labels is None else np.asarray(labels),
                   ids_distinct=True)
