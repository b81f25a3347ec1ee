"""Null Suppression with fixed length (NS) — eager, β = 0.

Deletes the redundant leading bytes of every element, storing each value at
the column-wide maximum significant width ``ValueDomain_MAX`` (Eq. 12).
Codes *are* the values (narrowed in two's complement when the column holds
negatives), so NS supports every direct-processing capability.
"""

from __future__ import annotations

import numpy as np

from ..stats import ColumnStats
from ..types import bytes_for_range
from .base import AffineCodec, CompressedColumn
from .kernels import pack_ints, unpack_ints


class NullSuppressionCodec(AffineCodec):
    """Fixed-width leading-zero suppression (the paper's NS)."""

    name = "ns"
    meta_types = {"width": int, "signed": bool, "offset": int}
    is_lazy = False
    needs_decompression = False

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        lo, hi = int(values.min()), int(values.max())
        # the widest element is an extreme one: ValueDomain_MAX from the range
        signed = lo < 0
        width = bytes_for_range(lo, hi)
        payload = pack_ints(values, width, signed=signed)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"width": width, "signed": signed, "offset": 0},
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return unpack_ints(
            column.payload,
            int(column.meta["width"]),
            column.n,
            signed=bool(column.meta["signed"]),
        )

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 12: r = Size_C / ValueDomain_MAX
        return stats.size_c / stats.ns_width

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        # NS codes equal the original values; materializing the narrow
        # payload into an int64 view is part of the byte-proportional scan.
        return self.decompress(column)
