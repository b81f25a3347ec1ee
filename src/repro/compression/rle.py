"""Run Length Encoding (RLE) — lazy, β = 1.

Each run of equal consecutive values becomes (value, length) with the run
length in an extra 4-byte integer (the ``Size_C + 4`` of Eq. 15).  RLE
breaks positional alignment, so the server decompresses before querying.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import Codec, CompressedColumn
from .kernels import rle_runs

#: Bytes of the run-length counter (the "+4" in Eq. 15).
RUN_LENGTH_BYTES = 4


class RunLengthCodec(Codec):
    """Run-length encoding (the paper's RLE)."""

    name = "rle"
    meta_types = {"runs": int}
    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        run_values, run_lengths = rle_runs(values)
        if run_lengths.max() >= (1 << (8 * RUN_LENGTH_BYTES - 1)):
            raise CodecError("run length exceeds the 4-byte counter")
        payload = np.concatenate(
            [
                run_values.view(np.uint8),
                run_lengths.astype(np.int32).view(np.uint8),
            ]
        )
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"runs": int(run_values.size)},
            nbytes=run_values.size * (8 + RUN_LENGTH_BYTES),
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        return np.repeat(*self.run_view(column))

    def run_view(self, column: CompressedColumn) -> Tuple[np.ndarray, np.ndarray]:
        """Expose the payload's (values, lengths) without expanding runs.

        Operators filter/aggregate at run granularity and the expansion to
        per-row values happens lazily, only when an operator needs it.  The
        layout is checked before anything is expanded.
        """
        self._check_column(column)
        runs = int(column.meta["runs"])
        if runs < 0 or column.payload.size != runs * (8 + RUN_LENGTH_BYTES):
            raise CodecError("rle payload size does not match its run count")
        run_values = column.payload[: runs * 8].view(np.int64)
        run_lengths = column.payload[runs * 8 :].view(np.int32).astype(np.int64)
        if run_lengths.min(initial=1) < 1 or int(run_lengths.sum()) != column.n:
            raise CodecError("run lengths do not reconstruct the original column")
        return run_values, run_lengths

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 15: r = Size_C * AverageRunLength / (Size_C + 4)
        if stats.avg_run_length <= 0:
            return 0.0
        return (stats.size_c * stats.avg_run_length) / (stats.size_c + RUN_LENGTH_BYTES)
