"""Codec tests: every write has an exact inverse, sizes are accounted."""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import (
    Decoder,
    Encoder,
    encoded_size,
    read_tagged_value,
    write_tagged_value,
)
from repro.errors import SerializationError


class TestVarints:
    def test_small_values_single_byte(self):
        for value in (0, 1, 127):
            enc = Encoder()
            enc.write_uvarint(value)
            assert enc.size == 1

    def test_negative_uvarint_rejected(self):
        enc = Encoder()
        with pytest.raises(SerializationError):
            enc.write_uvarint(-1)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_uvarint_roundtrip(self, value):
        enc = Encoder()
        enc.write_uvarint(value)
        assert Decoder(enc.to_bytes()).read_uvarint() == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_signed_roundtrip(self, value):
        enc = Encoder()
        enc.write_int(value)
        assert Decoder(enc.to_bytes()).read_int() == value

    def test_zigzag_small_negatives_compact(self):
        enc = Encoder()
        enc.write_int(-1)
        assert enc.size == 1


class TestScalars:
    @given(st.floats(allow_nan=False))
    def test_float_roundtrip(self, value):
        enc = Encoder()
        enc.write_float(value)
        assert Decoder(enc.to_bytes()).read_float() == value

    def test_float_nan_roundtrip(self):
        enc = Encoder()
        enc.write_float(float("nan"))
        assert np.isnan(Decoder(enc.to_bytes()).read_float())

    def test_bool_roundtrip(self):
        enc = Encoder()
        enc.write_bool(True)
        enc.write_bool(False)
        dec = Decoder(enc.to_bytes())
        assert dec.read_bool() is True
        assert dec.read_bool() is False

    @given(st.text())
    def test_str_roundtrip(self, value):
        enc = Encoder()
        enc.write_str(value)
        assert Decoder(enc.to_bytes()).read_str() == value

    def test_none_string_distinct_from_empty(self):
        enc = Encoder()
        enc.write_str(None)
        enc.write_str("")
        dec = Decoder(enc.to_bytes())
        assert dec.read_str() is None
        assert dec.read_str() == ""

    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, value):
        enc = Encoder()
        enc.write_bytes(value)
        assert Decoder(enc.to_bytes()).read_bytes() == value


class TestArrays:
    @pytest.mark.parametrize(
        "dtype",
        ["float64", "int64", "int32", "uint8", "bool", "float32", "uint16", "uint32"],
    )
    def test_supported_dtypes_roundtrip(self, dtype):
        arr = np.arange(10).astype(dtype)
        enc = Encoder()
        enc.write_array(arr)
        back = Decoder(enc.to_bytes()).read_array()
        assert back.dtype == np.dtype(dtype)
        assert np.array_equal(back, arr)

    def test_2d_shape_preserved(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        enc = Encoder()
        enc.write_array(arr)
        back = Decoder(enc.to_bytes()).read_array()
        assert back.shape == (3, 4)
        assert np.array_equal(back, arr)

    def test_empty_array(self):
        enc = Encoder()
        enc.write_array(np.empty(0, dtype=np.float64))
        assert len(Decoder(enc.to_bytes()).read_array()) == 0

    def test_unsupported_dtype_raises(self):
        enc = Encoder()
        with pytest.raises(SerializationError):
            enc.write_array(np.array(["a"], dtype=object))

    def test_decoded_array_is_writable_copy(self):
        enc = Encoder()
        enc.write_array(np.arange(4, dtype=np.int64))
        back = Decoder(enc.to_bytes()).read_array()
        back[0] = 99  # must not raise (frombuffer alone would be read-only)
        assert back[0] == 99


class TestStringLists:
    @given(st.lists(st.one_of(st.none(), st.text(max_size=30)), max_size=20))
    @settings(max_examples=50)
    def test_roundtrip(self, values):
        enc = Encoder()
        enc.write_str_list(values)
        assert Decoder(enc.to_bytes()).read_str_list() == values


class TestTaggedValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            0,
            -17,
            2**40,
            3.25,
            "hello",
            "",
            datetime(2019, 7, 10, 12, 0, tzinfo=timezone.utc),
        ],
    )
    def test_roundtrip(self, value):
        enc = Encoder()
        write_tagged_value(enc, value)
        assert read_tagged_value(Decoder(enc.to_bytes())) == value

    def test_numpy_scalars_accepted(self):
        enc = Encoder()
        write_tagged_value(enc, np.int64(5))
        write_tagged_value(enc, np.float64(2.5))
        dec = Decoder(enc.to_bytes())
        assert read_tagged_value(dec) == 5
        assert read_tagged_value(dec) == 2.5

    def test_unencodable_raises(self):
        enc = Encoder()
        with pytest.raises(SerializationError):
            write_tagged_value(enc, object())


class TestDecoderErrors:
    def test_truncated_data_raises(self):
        enc = Encoder()
        enc.write_float(1.0)
        data = enc.to_bytes()[:4]
        with pytest.raises(SerializationError):
            Decoder(data).read_float()

    def test_encoded_size_matches(self):
        size = encoded_size(lambda e: e.write_str("abcdef"))
        enc = Encoder()
        enc.write_str("abcdef")
        assert size == enc.size == len(enc.to_bytes())

    @staticmethod
    def _array_header(tag: int, shape: tuple[int, ...]) -> Encoder:
        enc = Encoder()
        enc.write_uvarint(tag)
        enc.write_uvarint(len(shape))
        for dim in shape:
            enc.write_uvarint(dim)
        return enc

    @pytest.mark.parametrize(
        "shape",
        [
            (2**62, 4),  # wraps to 0 cells in int64 arithmetic
            (2**32, 2**32),  # wraps to 0 as well
            (0, 2**64),  # no cells, an impossible axis
            (1 << 20,),  # plausible, but more than the bytes that follow
        ],
        ids=["wrapped", "wrapped-square", "impossible-empty", "oversized"],
    )
    def test_hostile_array_shapes_raise(self, shape):
        enc = self._array_header(1, shape)
        enc.write_bytes(b"x" * 64)
        with pytest.raises(SerializationError):
            Decoder(enc.to_bytes()).read_array()

    def test_truncated_array_raises(self):
        enc = Encoder()
        enc.write_array(np.arange(12, dtype=np.int64).reshape(3, 4))
        for cut in (1, 3, 10, len(enc.to_bytes()) - 1):
            with pytest.raises(SerializationError):
                Decoder(enc.to_bytes()[:cut]).read_array()

    def test_truncated_array_rank_raises(self):
        enc = self._array_header(1, ())
        raw = enc.to_bytes()[:1] + b"\xff\xff\x03"  # rank 65535, no axes
        with pytest.raises(SerializationError):
            Decoder(raw).read_array()

    def test_unknown_array_dtype_tag_raises(self):
        enc = self._array_header(99, (2,))
        enc.write_bytes(b"\x00" * 16)
        with pytest.raises(SerializationError, match="dtype tag 99"):
            Decoder(enc.to_bytes()).read_array()

    def test_remaining_tracks_position(self):
        enc = Encoder()
        enc.write_uvarint(7)
        enc.write_uvarint(9)
        dec = Decoder(enc.to_bytes())
        assert dec.remaining == 2
        dec.read_uvarint()
        assert dec.remaining == 1
