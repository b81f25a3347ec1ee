"""Cost-model calibration: per-codec time coefficients.

The paper obtains the instruction counts of Eq. 2/6 by reading each
codec's assembly once, so every run prices codecs from one fixed table.
Python has no stable instruction counts, so :func:`calibrate` plays the
same role empirically (DESIGN.md §3): each codec's compression and
decompression cost is fitted as ``t(n) = a * n + b`` seconds from timed
runs at two column sizes.  Those timings move between processes, so the
engine never measures: :func:`default_calibration` loads the table shipped
with the package (``calibration.json`` beside this module), and
``python -m repro calibrate --out src/repro/core/calibration.json`` is the
one way to refresh it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..compression.base import Codec
from ..compression.registry import all_codec_names, get_codec
from ..errors import CalibrationError


@dataclass(frozen=True)
class CodecTiming:
    """Linear time models, in seconds, for one codec."""

    compress_a: float  # seconds per element
    compress_b: float  # fixed seconds per batch
    decompress_a: float
    decompress_b: float

    def compress_seconds(self, n: int) -> float:
        return self.compress_a * n + self.compress_b

    def decompress_seconds(self, n: int) -> float:
        return self.decompress_a * n + self.decompress_b


@dataclass(frozen=True)
class CalibrationTable:
    """Fitted timings for a set of codecs.

    ``kindnum`` records the distinct-value count of the calibration column;
    plane-based codecs scale their coefficients by the cardinality ratio
    (see :meth:`repro.compression.base.Codec.cost_scale`).
    """

    timings: Dict[str, CodecTiming]
    kindnum: int = 1024

    def timing(self, codec_name: str) -> CodecTiming:
        try:
            return self.timings[codec_name]
        except KeyError:
            raise CalibrationError(
                f"codec {codec_name!r} was not calibrated"
            ) from None

    # ----- persistence ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "kindnum": self.kindnum,
                "timings": {
                    name: [t.compress_a, t.compress_b, t.decompress_a, t.decompress_b]
                    for name, t in sorted(self.timings.items())
                },
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CalibrationTable":
        try:
            doc = json.loads(text)
            if doc.get("version") != 1:
                raise CalibrationError(
                    f"unsupported calibration file version {doc.get('version')!r}"
                )
            timings = {
                name: CodecTiming(*[float(x) for x in coeffs])
                for name, coeffs in doc["timings"].items()
            }
            kindnum = int(doc["kindnum"])
        except CalibrationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed calibration file: {exc}") from exc
        if kindnum < 1:
            raise CalibrationError(f"kindnum must be >= 1, got {kindnum}")
        for name, t in timings.items():
            coeffs = (t.compress_a, t.compress_b, t.decompress_a, t.decompress_b)
            if not all(math.isfinite(c) and c >= 0 for c in coeffs):
                raise CalibrationError(
                    f"codec {name!r} needs finite non-negative coefficients, "
                    f"got {list(coeffs)}"
                )
        return cls(timings=timings, kindnum=kindnum)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        return cls.from_json(Path(path).read_text())


def _calibration_column(rng: np.random.Generator, n: int) -> np.ndarray:
    """A representative column: positive, some runs, *fixed* cardinality.

    The cardinality must not grow with n: plane-based codecs cost
    O(n * Kindnum), and fitting t = a*n + b across two sizes is only valid
    when Kindnum is the same at both (``Codec.cost_scale`` then adjusts for
    the target column's cardinality).
    """
    base = rng.integers(0, 48, size=n)
    runs = np.repeat(rng.integers(48, 64, size=max(n // 8, 1)), 8)[:n]
    mixed = np.where(rng.random(n) < 0.5, base, runs)
    return np.ascontiguousarray(mixed, dtype=np.int64)


def _time_call(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fit_line(n1: int, t1: float, n2: int, t2: float) -> Tuple[float, float]:
    if n2 == n1:
        raise CalibrationError("calibration needs two distinct sizes")
    a = max((t2 - t1) / (n2 - n1), 0.0)
    b = max(t1 - a * n1, 0.0)
    return a, b


def calibrate(
    codecs: Optional[Iterable[Codec]] = None,
    sizes: Sequence[int] = (2048, 16384),
    repeats: int = 3,
    seed: int = 12345,
) -> CalibrationTable:
    """Micro-benchmark codecs and fit their linear time models."""
    if len(sizes) != 2 or sizes[0] >= sizes[1]:
        raise CalibrationError("sizes must be two increasing column lengths")
    if codecs is None:
        codecs = [get_codec(name) for name in all_codec_names()]
    rng = np.random.default_rng(seed)
    columns = {n: _calibration_column(rng, n) for n in sizes}
    timings: Dict[str, CodecTiming] = {}
    for codec in codecs:
        comp_times = {}
        decomp_times = {}
        for n, col in columns.items():
            compressed = codec.compress(col)
            comp_times[n] = _time_call(lambda c=col: codec.compress(c), repeats)
            decomp_times[n] = _time_call(
                lambda cc=compressed: codec.decompress(cc), repeats
            )
        (n1, n2) = sizes
        ca, cb = _fit_line(n1, comp_times[n1], n2, comp_times[n2])
        da, db = _fit_line(n1, decomp_times[n1], n2, decomp_times[n2])
        timings[codec.name] = CodecTiming(ca, cb, da, db)
    kindnum = int(np.unique(columns[sizes[1]]).size)
    return CalibrationTable(timings=timings, kindnum=kindnum)


#: the shipped table: package data, refreshed only by ``repro calibrate``
SHIPPED_TABLE = Path(__file__).with_name("calibration.json")


@functools.lru_cache(maxsize=None)
def default_calibration() -> CalibrationTable:
    """The shipped calibration of the full codec registry, loaded once."""
    return CalibrationTable.load(SHIPPED_TABLE)
