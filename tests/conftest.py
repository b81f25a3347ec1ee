"""Shared fixtures: fast fake calibration, schemas, representative columns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.registry import all_codec_names
from repro.core.calibration import CalibrationTable, CodecTiming
from repro.stream.schema import Field, Schema


def pytest_addoption(parser):
    parser.addoption(
        "--write-golden",
        action="store_true",
        default=False,
        help="re-bless golden snapshot files (EXPLAIN plans) from the "
        "current output instead of comparing against them",
    )


@pytest.fixture(scope="session")
def fast_calibration() -> CalibrationTable:
    """A synthetic calibration table so tests never micro-benchmark.

    Times are loosely ordered like reality (identity cheapest, gzip by far
    the slowest, Elias coders slower than NS) so selector tests exercise
    realistic trade-offs deterministically.
    """
    ns = 1e-9
    per_elem = {
        "identity": (2 * ns, 2 * ns),
        "ns": (5 * ns, 4 * ns),
        "nsv": (30 * ns, 60 * ns),
        "eg": (12 * ns, 8 * ns),
        "ed": (15 * ns, 12 * ns),
        "bd": (6 * ns, 5 * ns),
        "rle": (8 * ns, 6 * ns),
        "dict": (10 * ns, 6 * ns),
        "bitmap": (40 * ns, 50 * ns),
        "plwah": (300 * ns, 400 * ns),
        "gzip": (900 * ns, 200 * ns),
        "deltachain": (7 * ns, 7 * ns),
    }
    # cascade codecs pay the sum of their stages; a stage-1 transform
    # costs what its closest single-stage codec does
    stage1_proxies = {"dict": "dict", "delta": "deltachain", "bd": "bd"}
    for name in all_codec_names():
        if "+" not in name or name in per_elem:
            continue
        stage1, stage2 = name.split("+", 1)
        proxy = stage1_proxies.get(stage1, "identity")
        per_elem[name] = (
            per_elem[proxy][0] + per_elem[stage2][0],
            per_elem[proxy][1] + per_elem[stage2][1],
        )
    timings = {
        name: CodecTiming(
            compress_a=per_elem[name][0],
            compress_b=1e-6,
            decompress_a=per_elem[name][1],
            decompress_b=1e-6,
        )
        for name in all_codec_names()
    }
    return CalibrationTable(timings=timings)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def simple_schema() -> Schema:
    return Schema(
        [
            Field("ts", "int", 8),
            Field("key", "int", 4),
            Field("load", "float", 4, decimals=2),
        ]
    )


@pytest.fixture
def column_shapes(rng):
    """Representative integer columns exercising distinct codec regimes."""
    return {
        "constant": np.full(512, 7, dtype=np.int64),
        "small_range": rng.integers(0, 100, 512),
        "wide_range": rng.integers(0, 1 << 40, 512),
        "negatives": rng.integers(-500, 500, 512),
        "runs": np.repeat(rng.integers(0, 6, 64), 8),
        "monotone": np.arange(512, dtype=np.int64) + 1_000_000,
        "binary": rng.integers(0, 2, 512),
        "single": np.array([42], dtype=np.int64),
        "with_zero": np.concatenate([[0], rng.integers(0, 10, 511)]),
        "extremes": np.array(
            [0, 1, 255, 256, 65535, 65536, (1 << 31) - 1, 1 << 31, (1 << 52)],
            dtype=np.int64,
        ),
    }
