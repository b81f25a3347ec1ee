"""Gzip (DEFLATE) — the heavyweight comparison point of Sec. II-B.

Not part of the adaptive pool: the paper's motivation experiment shows Gzip
spends ~90 % of total stream-processing time compressing, which is exactly
what `benchmarks/bench_motivation_gzip.py` reproduces.  β = 1 and no direct
capabilities.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import Codec, CompressedColumn


class GzipCodec(Codec):
    """zlib/DEFLATE over the raw column bytes (heavyweight baseline)."""

    name = "gzip"
    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise CodecError("zlib level must be in [1, 9]")
        self.level = level

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        blob = zlib.compress(values.tobytes(), self.level)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=np.frombuffer(blob, dtype=np.uint8).copy(),
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        stream = zlib.decompressobj()
        try:
            # inflate at most one byte past the column the stream claims
            raw = stream.decompress(column.payload.tobytes(), 8 * column.n + 1)
        except zlib.error as exc:
            raise CodecError(f"gzip payload is corrupt: {exc}") from None
        if len(raw) != 8 * column.n or not stream.eof or stream.unused_data:
            raise CodecError("gzip payload does not reconstruct the column")
        return np.frombuffer(raw, dtype=np.int64).copy()

    def estimate_ratio(self, stats: ColumnStats) -> float:
        """Heuristic only — Gzip has no closed-form ratio.

        Entropy coding of a column with ``Kindnum`` distinct values needs
        about log2(Kindnum) bits per element plus dictionary overhead; runs
        compress further.  This estimate exists so the codec *can* be put in
        the pool for experiments; the default pool excludes it.
        """
        bits = max((stats.kindnum - 1).bit_length(), 1)
        per_element = bits / max(stats.avg_run_length, 1.0) / 8 + 0.05
        return stats.size_c / per_element
