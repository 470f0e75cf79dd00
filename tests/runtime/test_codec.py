"""Binary wire codec: exhaustive schema sweep, sizes, zero-copy, strict mode.

Satellite guarantee for the TCP backend: *every* registered wire
schema survives the binary codec round-trip (the registry sweep here
fails on a registered name with no sample — unlike the pickle sweep in
``tests/lint/test_schema.py``, which skips unknown names — so adding a
schema without extending this test is an error), and the codec's
envelope overhead versus pickle is pinned so a size regression on the
hot path is caught.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.kmachine.reliable import Envelope
from repro.kmachine.schema import (
    WIRE_SCHEMAS,
    AssignStats,
    CenterSet,
    Coreset,
    Echo,
    PointBatch,
    SuspicionNotice,
    UpdatePlan,
    VoteEnvelope,
    check_roundtrip,
)
from repro.points.ids import Keyed
from repro.runtime import codec
from repro.runtime.transport import RoundDown, RoundUp, WorkerDone, WorkerFailed


def _schema_samples() -> dict[str, object]:
    """One representative instance per registered wire schema."""
    return {
        "Envelope": Envelope(seq=7, checksum=0xDEAD, payload=(1.5, 42)),
        "PointBatch": PointBatch(
            ids=np.array([3, 9], dtype=np.int64),
            coords=np.array([[0.1, 0.2], [0.3, 0.4]]),
            labels=np.array([1, 0], dtype=np.int64),
        ),
        "UpdatePlan": UpdatePlan(insert_counts=(2, 0, 1), delete_ids=(5, 17)),
        "Echo": Echo(origin=3, value=(0.25, 11)),
        "VoteEnvelope": VoteEnvelope(voter=2, choice=0, term=4),
        "SuspicionNotice": SuspicionNotice(suspect=5, reason="silent echo"),
        "Coreset": Coreset(
            points=np.array([[0.1, 0.9], [0.5, 0.5]]),
            weights=np.array([3.0, 7.0]),
            movement=0.125,
            radius=0.25,
        ),
        "CenterSet": CenterSet(
            centers=np.array([[0.2, 0.8]]),
            objective="kmedian",
            cost=1.5,
        ),
        "AssignStats": AssignStats(
            counts=np.array([4, 0, 2], dtype=np.int64),
            radii=np.array([0.3, 0.0, 0.1]),
            cost=0.75,
        ),
        "RoundUp": RoundUp(
            rank=1,
            messages=[(0, "sel/report", (1.5, 7)), (2, "sel/query", None)],
            halted=False,
            links={0: (1, 192), 2: (1, 96)},
            tags={"sel/report": (1, 192), "sel/query": (1, 96)},
            compute_seconds=0.25,
        ),
        "RoundDown": RoundDown(
            messages=[(0, "sel/report", (1.5, 7))],
            stop=False,
            crashed=[3],
            expect=[0, 2],
        ),
        "WorkerDone": WorkerDone(rank=4),
        "WorkerFailed": WorkerFailed(
            rank=2, error="ValueError: boom", traceback="Traceback ..."
        ),
    }


class TestSchemaSweep:
    def test_every_registered_schema_roundtrips_binary(self):
        samples = _schema_samples()
        missing = [name for name in WIRE_SCHEMAS if name not in samples]
        assert not missing, (
            f"registered wire schemas without a codec sample: {missing} — "
            f"add samples here so the binary transport guarantee stays "
            f"exhaustive"
        )
        for name, sample in samples.items():
            assert check_roundtrip(sample, serializer="binary"), (
                f"{name} does not survive the binary codec"
            )

    def test_transport_dataclasses_are_registered(self):
        for name in ("RoundUp", "RoundDown", "WorkerDone", "WorkerFailed"):
            assert name in WIRE_SCHEMAS

    def test_schema_roundtrip_is_strict_no_pickle(self):
        codec.reset_pickle_fallbacks()
        for sample in _schema_samples().values():
            codec.decode(codec.encode(sample, strict=True), strict=True)
        assert codec.pickle_fallbacks() == 0


class TestValues:
    CASES = [
        None,
        True,
        False,
        0,
        -1,
        2**40,
        -(2**62),
        2**100,          # beyond int64: bigint path
        -(2**100),
        3.14159,
        float("inf"),
        "",
        "protocol tag/with/slashes ∂",
        b"\x00\xffbytes",
        (1, 2.0, "three", None),
        (16, 0.25, 0.5, float("inf")),  # Algorithm 2's certificate report
        [1, [2, [3]]],
        {"a": 1, "b": (2, 3)},
        {1: "x", (2, 3): "y"},
        set([1, 2, 3]),
        # A frozenset of str prints in hash-seed order, so these ids name the
        # construction order instead; both orders must decode to an equal set.
        pytest.param(frozenset(["a", "b"]), id="frozenset({'a', 'b'})"),
        pytest.param(frozenset(["b", "a"]), id="frozenset({'b', 'a'})"),
        Keyed(1.25, 77),
    ]

    @pytest.mark.parametrize("value", CASES, ids=lambda c: repr(c)[:40])
    def test_roundtrip(self, value):
        clone = codec.decode(codec.encode(value, strict=True), strict=True)
        assert clone == value
        assert type(clone) is type(value)

    def test_nan_roundtrips(self):
        clone = codec.decode(codec.encode(float("nan"), strict=True), strict=True)
        assert np.isnan(clone)

    def test_numpy_scalars(self):
        for scalar in (np.int64(-5), np.float64(2.5), np.int32(7), np.bool_(True)):
            clone = codec.decode(codec.encode(scalar, strict=True), strict=True)
            assert clone == scalar
            assert clone.dtype == scalar.dtype

    def test_keyed_preserves_ordering_fields(self):
        keyed = Keyed(0.5, 9)
        clone = codec.decode(codec.encode(keyed, strict=True), strict=True)
        assert clone.as_tuple() == keyed.as_tuple()


class TestArrays:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.int64),
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.empty((0, 5), dtype=np.float64),
            np.array([[True, False]]),
            np.arange(6, dtype=np.float32)[::2],  # non-contiguous
            np.zeros((4, 3), dtype=np.float64).T,  # fortran order view
        ],
        ids=["int64", "2d-f64", "empty", "bool", "strided", "transposed"],
    )
    def test_ndarray_roundtrip(self, arr):
        clone = codec.decode(codec.encode(arr, strict=True), strict=True)
        assert clone.dtype == arr.dtype
        assert clone.shape == arr.shape
        assert np.array_equal(clone, arr)

    def test_structured_dtype_roundtrips(self):
        table = np.empty(3, dtype=[("value", "f8"), ("id", "i8")])
        table["value"] = [0.5, 1.5, 2.5]
        table["id"] = [7, 8, 9]
        clone = codec.decode(codec.encode(table, strict=True), strict=True)
        assert clone.dtype == table.dtype
        assert np.array_equal(clone, table)

    def test_large_array_decodes_zero_copy(self):
        """Decode views the frame buffer instead of copying the block."""
        arr = np.arange(4096, dtype=np.float64)  # well above threshold
        data = codec.encode(arr, strict=True)
        clone = codec.decode(data, strict=True)
        assert np.array_equal(clone, arr)
        assert not clone.flags.writeable  # it is a view of the frame
        assert np.shares_memory(clone, np.frombuffer(data, dtype=np.uint8))

    def test_large_array_encodes_zero_copy_segment(self):
        """encode_frame ships the array buffer as its own segment."""
        arr = np.arange(4096, dtype=np.float64)
        segments = codec.encode_frame(arr, strict=True)
        assert any(
            isinstance(seg, memoryview)
            and seg.nbytes == arr.nbytes
            and np.shares_memory(np.frombuffer(seg, dtype=np.uint8), arr)
            for seg in segments
        )

    def test_frame_header_matches_payload_length(self):
        obj = {"xs": np.arange(512, dtype=np.int64), "tag": "pb"}
        segments = codec.encode_frame(obj, strict=True)
        (declared,) = codec.FRAME_HEADER.unpack(bytes(segments[0]))
        payload = b"".join(bytes(seg) for seg in segments[1:])
        assert declared == len(payload)
        assert codec.decode(payload, strict=True)["tag"] == "pb"


class TestSizeRatios:
    """Codec-vs-pickle size pins: regressions on the hot path fail here."""

    def test_point_batch_near_raw_volume(self):
        batch = PointBatch(
            ids=np.arange(4096, dtype=np.int64),
            coords=np.zeros((4096, 8), dtype=np.float64),
        )
        raw = batch.ids.nbytes + batch.coords.nbytes
        encoded = len(codec.encode(batch, strict=True))
        pickled = len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
        assert encoded <= raw + 512          # ~fixed envelope overhead
        assert encoded <= pickled + 256      # never meaningfully above pickle

    def test_small_protocol_message_overhead_bounded(self):
        payload = ("sel/report", (1.5, 42))
        encoded = len(codec.encode(payload, strict=True))
        pickled = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert encoded <= 64
        assert encoded <= 2 * pickled

    def test_round_up_control_frame_compact(self):
        up = RoundUp(
            rank=3, messages=[], halted=False,
            links={0: (2, 256)}, tags={"sel/q": (2, 256)},
            compute_seconds=0.001,
        )
        assert len(codec.encode(up, strict=True)) <= 192


class TestStrictMode:
    class _Opaque:
        pass

    def test_strict_raises_on_unknown_type(self):
        with pytest.raises(codec.CodecError):
            codec.encode(self._Opaque(), strict=True)

    def test_nonstrict_falls_back_to_pickle_and_counts(self):
        codec.reset_pickle_fallbacks()
        clone = codec.decode(codec.encode((1, self.__class__)))
        assert clone[0] == 1
        assert codec.pickle_fallbacks() > 0
        codec.reset_pickle_fallbacks()

    def test_unregistered_dataclass_is_not_schema_encoded(self):
        import dataclasses

        @dataclasses.dataclass
        class NotRegistered:
            x: int

        with pytest.raises(codec.CodecError):
            codec.encode(NotRegistered(x=1), strict=True)

    def test_trailing_bytes_rejected(self):
        data = codec.encode(42, strict=True) + b"\x00"
        with pytest.raises(codec.CodecError):
            codec.decode(data, strict=True)

    def test_truncated_frame_rejected(self):
        data = codec.encode("hello world", strict=True)
        with pytest.raises(codec.CodecError):
            codec.decode(data[:-3], strict=True)

    def test_object_dtype_array_refused_strict(self):
        arr = np.array([object(), object()], dtype=object)
        with pytest.raises(codec.CodecError):
            codec.encode(arr, strict=True)
