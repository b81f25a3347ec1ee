"""Unit tests for the adaptive, static and fixed-plan selectors."""

import numpy as np
import pytest

from repro.compression import get_codec
from repro.core import (
    AdaptiveSelector,
    CostModel,
    FixedPlanSelector,
    QueryProfile,
    StaticSelector,
    SystemParams,
    column_stats_from_batches,
)
from repro.core import selector as selector_module
from repro.errors import CodecError
from repro.net import Channel
from repro.stats import ColumnStats
from repro.stream import Batch, Field, Schema


@pytest.fixture
def model(fast_calibration):
    return CostModel(fast_calibration, SystemParams(), Channel(bandwidth_mbps=100))


def stats_of(values, size_c=8):
    return {
        "col": ColumnStats.from_values(
            np.asarray(values, dtype=np.int64), size_c=size_c
        )
    }


class TestAdaptiveSelector:
    def test_prefers_rle_on_long_runs(self, model):
        stats = stats_of(np.repeat(np.arange(4), 256))
        choice = AdaptiveSelector(model).select(stats, QueryProfile(), 1024)
        assert choice["col"].name in ("rle", "dict", "bitmap")

    def test_prefers_narrow_codec_on_small_domain_high_cardinality(self, model, rng):
        # values 0..255, nearly all distinct ranks -> NS/BD territory,
        # dictionary would ship a large dictionary
        stats = stats_of(rng.permutation(np.arange(250)))
        choice = AdaptiveSelector(model).select(stats, QueryProfile(), 1024)
        assert choice["col"].name in ("ns", "bd", "eg", "ed", "nsv")

    def test_skips_inapplicable_codecs(self, model, rng):
        stats = stats_of(rng.integers(-100, 100, 512))
        pool = [get_codec("eg"), get_codec("ed")]
        choice = AdaptiveSelector(model, pool).select(stats, QueryProfile(), 512)
        assert choice["col"].name == "identity"  # nothing applicable -> fallback

    def test_identity_when_compression_cannot_pay(self, fast_calibration, rng):
        # single-node: no transmission savings; no query references either,
        # so any compression work is pure loss
        model = CostModel(fast_calibration, SystemParams(), Channel.single_node())
        stats = stats_of(rng.integers(0, 1 << 60, 512))
        choice = AdaptiveSelector(model).select(stats, QueryProfile(), 512)
        assert choice["col"].name == "identity"

    def test_empty_pool_rejected(self, model):
        with pytest.raises(CodecError):
            AdaptiveSelector(model, [])

    def test_selects_per_column_independently(self, model, rng):
        stats = {
            "runs": ColumnStats.from_values(np.repeat(np.arange(8), 128)),
            "wide": ColumnStats.from_values(rng.integers(0, 1 << 50, 1024)),
        }
        choice = AdaptiveSelector(model).select(stats, QueryProfile(), 1024)
        assert choice["runs"].name != choice["wide"].name


class TestStaticSelector:
    def test_same_codec_everywhere(self, rng):
        stats = {
            "a": ColumnStats.from_values(rng.integers(0, 10, 64)),
            "b": ColumnStats.from_values(rng.integers(0, 10, 64)),
        }
        choice = StaticSelector("bd").select(stats, QueryProfile(), 64)
        assert {c.name for c in choice.values()} == {"bd"}

    def test_falls_back_to_identity_when_inapplicable(self, rng):
        stats = {"neg": ColumnStats.from_values(rng.integers(-5, 5, 64))}
        choice = StaticSelector("eg").select(stats, QueryProfile(), 64)
        assert choice["neg"].name == "identity"


class TestFixedPlanSelector:
    def test_explicit_mapping(self, rng):
        stats = {
            "a": ColumnStats.from_values(rng.integers(0, 10, 64)),
            "b": ColumnStats.from_values(rng.integers(0, 10, 64)),
        }
        sel = FixedPlanSelector({"a": "rle"}, default="ns")
        choice = sel.select(stats, QueryProfile(), 64)
        assert choice["a"].name == "rle"
        assert choice["b"].name == "ns"


class TestColumnStatsFromBatches:
    def _batches(self):
        schema = Schema([Field("x", "int", 4)])
        return schema, [
            Batch(schema, {"x": np.arange(10, dtype=np.int64)}),
            Batch(schema, {"x": np.arange(10, 20, dtype=np.int64)}),
        ]

    def test_concatenates_lookahead(self):
        schema, batches = self._batches()
        stats = column_stats_from_batches(batches, schema)
        assert stats["x"].n == 20
        assert stats["x"].max_value == 19
        assert stats["x"].size_c == 4  # from the schema, not the array

    def test_sample_cap(self, monkeypatch):
        schema, batches = self._batches()
        monkeypatch.setattr(selector_module, "MAX_SAMPLE", 5)
        stats = column_stats_from_batches(batches, schema)
        assert stats["x"].n == 5
        assert stats["x"].min_value == 15  # most recent values kept

        # unequal batches: the sample is the trailing MAX_SAMPLE values of
        # the concatenated lookahead, whichever batches they fall in
        rng = np.random.default_rng(3)
        schema = Schema([Field("x", "int", 4), Field("y", "int", 8)])
        sizes = [7, 3, 12, 1, 5]
        batches = [
            Batch(
                schema,
                {
                    "x": rng.integers(-50, 50, n).astype(np.int64),
                    "y": np.repeat(rng.integers(0, 1 << 40, 3), n)[:n],
                },
            )
            for n in sizes
        ]
        for max_sample in (
            1,  # inside the last batch
            5,  # exactly the last batch
            6,  # exactly on the boundary of the last two batches
            8,  # straddles a boundary
            10,  # ends inside the 12-value batch, larger than max_sample
            28,  # exactly everything
            40,  # more than everything
        ):
            monkeypatch.setattr(selector_module, "MAX_SAMPLE", max_sample)
            stats = column_stats_from_batches(batches, schema)
            for f in schema:
                whole = np.concatenate([b.column(f.name) for b in batches])
                expected = ColumnStats.from_values(whole[-max_sample:], size_c=f.size)
                assert stats[f.name] == expected, (max_sample, f.name)
        one_large = [Batch(schema, {"x": np.arange(20), "y": np.arange(20)})]
        monkeypatch.setattr(selector_module, "MAX_SAMPLE", 6)
        stats = column_stats_from_batches(one_large, schema)
        assert stats["x"] == ColumnStats.from_values(np.arange(14, 20), size_c=4)

    def test_requires_batches(self):
        schema, _ = self._batches()
        with pytest.raises(CodecError):
            column_stats_from_batches([], schema)
