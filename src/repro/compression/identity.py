"""Identity "codec": the uncompressed baseline.

CompressStreamDB can turn compression off (Sec. VI); the baseline in every
experiment is the engine running with this codec, so all stage accounting
flows through the same code path.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import AffineCodec, CompressedColumn


class IdentityCodec(AffineCodec):
    """Stores the column verbatim (r = 1, eager, no decompression)."""

    name = "identity"
    meta_types = {"offset": int}
    is_lazy = False
    needs_decompression = False

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=values.view(np.uint8).copy(),
            meta={"offset": 0},
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return column.payload.view(np.int64).copy()

    def estimate_ratio(self, stats: ColumnStats) -> float:
        return 1.0

    def _check_column(self, column: CompressedColumn) -> None:
        super()._check_column(column)
        if column.payload.size != 8 * column.n:
            raise CodecError("identity payload must hold 8 bytes per value")

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return column.payload.view(np.int64)
