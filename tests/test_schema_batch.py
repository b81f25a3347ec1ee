"""Unit tests for schemas, quantization, and columnar batches."""

import numpy as np
import pytest

from repro.compression import get_codec
from repro.errors import QuantizationError, SchemaError
from repro.stream import Batch, CompressedBatch, Field, Schema
from repro.stream.quantize import dequantize, detect_decimals, quantize


class TestField:
    def test_defaults(self):
        f = Field("x")
        assert (f.kind, f.size, f.decimals) == ("int", 8, 0)

    def test_float_scale(self):
        assert Field("v", "float", 4, decimals=2).scale == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="1bad"),
            dict(name="x", kind="text"),
            dict(name="x", size=3),
            dict(name="x", kind="int", decimals=2),
            dict(name="x", kind="float", decimals=10),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SchemaError):
            Field(**{"name": "x", **kwargs})


class TestSchema:
    def test_tuple_bytes(self, simple_schema):
        assert simple_schema.tuple_bytes == 8 + 4 + 4

    def test_lookup_and_contains(self, simple_schema):
        assert "ts" in simple_schema
        assert simple_schema["load"].decimals == 2
        with pytest.raises(SchemaError):
            simple_schema["nope"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a"), Field("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_equality(self, simple_schema):
        clone = Schema(list(simple_schema.fields))
        assert clone == simple_schema
        assert Schema([Field("z")]) != simple_schema


class TestQuantize:
    def test_roundtrip(self):
        values = np.array([1.25, -3.5, 0.0, 100.75])
        stored = quantize(values, 2)
        np.testing.assert_array_equal(stored, [125, -350, 0, 10075])
        np.testing.assert_array_equal(dequantize(stored, 2), values)

    def test_lossy_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([0.123]), 2)

    def test_nan_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([np.nan]), 2)

    def test_magnitude_rejected(self):
        with pytest.raises(QuantizationError):
            quantize(np.array([1e300]), 0)

    def test_detect_decimals(self):
        assert detect_decimals(np.array([1.0, 2.0])) == 0
        assert detect_decimals(np.array([1.5, 2.25])) == 2
        assert detect_decimals(np.array([0.125])) == 3

    def test_detect_decimals_raises_beyond_limit(self):
        with pytest.raises(QuantizationError):
            detect_decimals(np.array([1 / 3]), max_decimals=6)


class TestBatch:
    def test_from_values_quantizes_floats(self, simple_schema):
        b = Batch.from_values(
            simple_schema,
            {"ts": [1, 2], "key": [7, 7], "load": [1.25, 2.5]},
        )
        np.testing.assert_array_equal(b.column("load"), [125, 250])
        assert b.n == 2

    def test_from_rows(self, simple_schema):
        b = Batch.from_rows(simple_schema, [(1, 7, 1.25), (2, 8, 0.75)])
        np.testing.assert_array_equal(b.column("key"), [7, 8])

    def test_missing_column_rejected(self, simple_schema):
        with pytest.raises(SchemaError):
            Batch.from_values(simple_schema, {"ts": [1], "key": [1]})

    def test_extra_column_rejected(self, simple_schema):
        with pytest.raises(SchemaError):
            Batch(
                simple_schema,
                {
                    "ts": np.array([1]),
                    "key": np.array([1]),
                    "load": np.array([1]),
                    "bogus": np.array([1]),
                },
            )

    def test_ragged_rejected(self, simple_schema):
        with pytest.raises(SchemaError):
            Batch(
                simple_schema,
                {"ts": np.arange(3), "key": np.arange(2), "load": np.arange(3)},
            )

    def test_slice_and_take(self, simple_schema):
        b = Batch.from_values(
            simple_schema,
            {"ts": np.arange(10), "key": np.arange(10), "load": np.zeros(10)},
        )
        np.testing.assert_array_equal(b.slice(2, 5).column("ts"), [2, 3, 4])
        np.testing.assert_array_equal(b.take(np.array([0, 9])).column("ts"), [0, 9])

    def test_concat(self, simple_schema):
        b1 = Batch.from_values(simple_schema, {"ts": [1], "key": [1], "load": [0.0]})
        b2 = Batch.from_values(simple_schema, {"ts": [2], "key": [2], "load": [0.5]})
        merged = Batch.concat([b1, b2])
        assert merged.n == 2
        np.testing.assert_array_equal(merged.column("ts"), [1, 2])

    def test_concat_schema_mismatch(self, simple_schema):
        other = Schema([Field("x")])
        b1 = Batch.from_values(simple_schema, {"ts": [1], "key": [1], "load": [0.0]})
        b2 = Batch.from_values(other, {"x": [1]})
        with pytest.raises(SchemaError):
            Batch.concat([b1, b2])

    def test_uncompressed_nbytes(self, simple_schema):
        b = Batch.from_values(
            simple_schema,
            {"ts": np.arange(4), "key": np.arange(4), "load": np.zeros(4)},
        )
        assert b.uncompressed_nbytes == 4 * 16


class TestCompressedBatch:
    def _make(self, simple_schema, n=8):
        codec = get_codec("ns")
        cols = {
            name: codec.compress(np.arange(n, dtype=np.int64))
            for name in simple_schema.names
        }
        return CompressedBatch(schema=simple_schema, n=n, columns=cols)

    def test_nbytes_and_ratio(self, simple_schema):
        cb = self._make(simple_schema)
        assert cb.nbytes == sum(cc.nbytes for cc in cb.columns.values())
        assert cb.ratio == cb.uncompressed_nbytes / cb.nbytes

    def test_choices_derived(self, simple_schema):
        cb = self._make(simple_schema)
        assert cb.choices == {"ts": "ns", "key": "ns", "load": "ns"}

    def test_missing_column_rejected(self, simple_schema):
        codec = get_codec("ns")
        with pytest.raises(SchemaError):
            CompressedBatch(
                schema=simple_schema,
                n=4,
                columns={"ts": codec.compress(np.arange(4, dtype=np.int64))},
            )

    def test_length_mismatch_rejected(self, simple_schema):
        codec = get_codec("ns")
        cols = {
            name: codec.compress(np.arange(4, dtype=np.int64))
            for name in simple_schema.names
        }
        with pytest.raises(SchemaError):
            CompressedBatch(schema=simple_schema, n=5, columns=cols)
