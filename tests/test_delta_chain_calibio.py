"""Tests for the delta-chain codec extension and calibration persistence."""

import numpy as np
import pytest

from repro.compression import default_pool, get_codec
from repro.core.calibration import CalibrationTable, CodecTiming
from repro.errors import CalibrationError
from repro.stats import ColumnStats


class TestDeltaChain:
    def test_monotone_timestamps_crush(self):
        codec = get_codec("deltachain")
        ts = 1_700_000_000 + np.arange(4096) // 100  # slowly advancing epoch
        cc = codec.compress(ts)
        assert cc.meta["width"] == 1  # deltas are 0 or 1
        assert cc.ratio > 7.5
        np.testing.assert_array_equal(codec.decompress(cc), ts)

    def test_estimate_matches_eq(self):
        ts = np.arange(1000, dtype=np.int64) * 3 + 50
        stats = ColumnStats.from_values(ts)
        assert stats.delta_domain_bytes == 1
        assert get_codec("deltachain").estimate_ratio(stats) == 8.0

    def test_negative_deltas(self, rng):
        values = rng.integers(-100, 100, 512).cumsum()
        codec = get_codec("deltachain")
        cc = codec.compress(values)
        np.testing.assert_array_equal(codec.decompress(cc), values)

    def test_wild_deltas_need_full_width(self, rng):
        values = rng.integers(-(1 << 60), 1 << 60, 64)
        codec = get_codec("deltachain")
        cc = codec.compress(values)
        assert cc.meta["width"] == 8
        np.testing.assert_array_equal(codec.decompress(cc), values)

    def test_single_element(self):
        codec = get_codec("deltachain")
        cc = codec.compress(np.array([42], dtype=np.int64))
        np.testing.assert_array_equal(codec.decompress(cc), [42])

    def test_beta_one_classification(self):
        codec = get_codec("deltachain")
        assert codec.is_lazy
        assert codec.needs_decompression
        assert codec.capabilities == frozenset()

    def test_pool_extension_hook(self):
        names = {c.name for c in default_pool(extensions=("deltachain",))}
        assert "deltachain" in names
        base = {c.name for c in default_pool()}
        assert "deltachain" not in base

    def test_selector_can_pick_deltachain(self, fast_calibration):
        from repro.core import AdaptiveSelector, CostModel, QueryProfile, SystemParams
        from repro.net import Channel

        model = CostModel(fast_calibration, SystemParams(), Channel(bandwidth_mbps=50))
        selector = AdaptiveSelector(model, default_pool(extensions=("deltachain",)))
        # a drifting wide-magnitude counter: per-value widths stay 8 bytes
        # (NS/BD/dict useless) but deltas are tiny -> deltachain dominates
        values = (1 << 61) + np.cumsum(np.random.default_rng(0).integers(0, 3, 4096))
        stats = {"ctr": ColumnStats.from_values(values)}
        choice = selector.select(stats, QueryProfile(), 4096)
        assert choice["ctr"].name == "deltachain"


class TestCalibrationPersistence:
    def _table(self):
        return CalibrationTable(
            timings={"ns": CodecTiming(1e-9, 1e-6, 2e-9, 2e-6)}, kindnum=64
        )

    def test_json_roundtrip(self):
        table = self._table()
        restored = CalibrationTable.from_json(table.to_json())
        assert restored.kindnum == 64
        assert restored.timing("ns") == table.timing("ns")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "calib.json"
        table = self._table()
        table.save(path)
        restored = CalibrationTable.load(path)
        assert restored.timing("ns") == table.timing("ns")

    def test_malformed_json_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationTable.from_json("{not json")

    def test_wrong_version_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationTable.from_json('{"version": 99, "kindnum": 1, "timings": {}}')

    def test_missing_fields_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationTable.from_json('{"version": 1}')

    @pytest.mark.parametrize(
        "kindnum, coeffs",
        [
            (64, "[NaN, 1e-6, 2e-9, 2e-6]"),
            (64, "[1e-9, Infinity, 2e-9, 2e-6]"),
            (64, "[1e-9, 1e-6, -Infinity, 2e-6]"),
            (64, "[1e-9, 1e-6, 2e-9, -1]"),
            (0, "[1e-9, 1e-6, 2e-9, 2e-6]"),
            (-3, "[1e-9, 1e-6, 2e-9, 2e-6]"),
        ],
    )
    def test_unusable_coefficients_rejected(self, kindnum, coeffs):
        # a NaN or negative price would reach the selector's comparisons
        text = (
            f'{{"version": 1, "kindnum": {kindnum}, '
            f'"timings": {{"ns": {coeffs}}}}}'
        )
        with pytest.raises(CalibrationError):
            CalibrationTable.from_json(text)

    def test_loaded_table_drives_engine(self, tmp_path, fast_calibration):
        from repro import CompressStreamDB, EngineConfig
        from repro.stream import Field, GeneratorSource, Schema

        path = tmp_path / "calib.json"
        fast_calibration.save(path)
        loaded = CalibrationTable.load(path)
        schema = Schema([Field("x")])
        engine = CompressStreamDB(
            {"S": schema},
            "select x, count(*) as c from S [range 8 slide 8] group by x",
            EngineConfig(calibration=loaded),
        )
        src = GeneratorSource(
            schema, lambda i: {"x": np.arange(64) % 4}, limit=2
        )
        report = engine.run(src)
        assert report.profiler.batches == 2


def test_cli_calibrate(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "c.json"
    assert main(["calibrate", "--out", str(out), "--repeats", "1"]) == 0
    assert out.exists()
    table = CalibrationTable.load(out)
    assert "ns" in table.timings and "deltachain" in table.timings
