"""Base-Delta encoding (BD) — lazy, β = 0.

Stores every element as its delta from the batch minimum (Eq. 14).  This is
the single compression method TerseCades [27] relies on; running the engine
with a fixed BD codec reproduces that comparator.  Deltas are non-negative,
so the payload is an unsigned fixed-width array, and
``value = code + base`` makes BD fully affine.
"""

from __future__ import annotations

import numpy as np

from ..stats import ColumnStats
from .base import AffineCodec, CompressedColumn
from .kernels import bd_pack, unpack_ints


class BaseDeltaCodec(AffineCodec):
    """Delta-from-base encoding (the paper's BD / TerseCades)."""

    name = "bd"
    meta_types = {"width": int, "offset": int}
    is_lazy = True
    needs_decompression = False

    #: Transmitted metadata: the 8-byte base value.
    META_BYTES = 8

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        base, width, payload = bd_pack(values)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"width": width, "offset": base},
            nbytes=payload.nbytes + self.META_BYTES,
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        deltas = unpack_ints(column.payload, int(column.meta["width"]), column.n)
        return deltas + int(column.meta["offset"])

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 14: r = Size_C / BDDomain
        return stats.size_c / stats.bd_domain_bytes

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return unpack_ints(column.payload, int(column.meta["width"]), column.n)
