"""Bitmap encoding — lazy, β = 1.

Each distinct value owns a bitmap of batch length; element i sets bit i of
the bitmap of its value.  The transmitted size follows Eq. 17, which rounds
the number of bitmaps up to the next power of two (hardware bitmap indexes
allocate planes in powers of two); the zero padding planes are charged but
not materialized.  Bitmaps destroy the positional byte layout, so the
server decompresses (argmax over planes) before querying.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import Codec, CompressedColumn, PlaneView
from .kernels import bitmap_planes


def build_bitplanes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, bool matrix of shape (kindnum, n))."""
    return bitmap_planes(np.asarray(values, dtype=np.int64))


class BitmapCodec(Codec):
    """One bitmap per distinct value (the paper's Bitmap)."""

    name = "bitmap"
    meta_types = {"dictionary": np.ndarray, "row_bytes": int}
    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        dictionary, planes = build_bitplanes(values)
        packed = np.packbits(planes, axis=1)
        kindnum = int(dictionary.size)
        padded_planes = 1 << max((kindnum - 1).bit_length(), 0) if kindnum > 1 else 1
        charged = (padded_planes * values.size + 7) // 8 + dictionary.nbytes
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=packed.reshape(-1),
            meta={
                "dictionary": dictionary,
                "row_bytes": int(packed.shape[1]),
            },
            nbytes=int(charged),
            source_size_c=8,
        )

    def _planes(self, column: CompressedColumn) -> Tuple[np.ndarray, np.ndarray]:
        """(dictionary, packed planes of shape (kindnum, ceil(n / 8)))."""
        self._check_column(column)
        dictionary = column.meta["dictionary"]
        planes, width = dictionary.size, (column.n + 7) // 8
        if column.meta["row_bytes"] != width or column.payload.size != planes * width:
            raise CodecError("bitmap payload size does not match its planes")
        return dictionary, column.payload.reshape(planes, width)

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        dictionary, packed = self._planes(column)
        planes = np.unpackbits(packed, axis=1)[:, : column.n]
        if not (planes.sum(axis=0) == 1).all():
            raise CodecError("bitmap planes are not a partition of positions")
        codes = planes.argmax(axis=0)
        return dictionary[codes]

    def plane_view(self, column: CompressedColumn) -> PlaneView:
        """Equality predicates unpack one plane; the rest stay packed."""
        dictionary, packed = self._planes(column)
        n = column.n

        def mask_fn(idx: int) -> np.ndarray:
            return np.unpackbits(packed[idx])[:n].astype(bool)

        return PlaneView(dictionary, n, mask_fn)

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 17: r = Size_C / (2^ceil(log2 Kindnum) / 8)
        return stats.size_c / (stats.bitmap_bits_per_element / 8)

    def estimate_transmitted_ratio(self, stats: ColumnStats) -> float:
        planes = stats.bitmap_bits_per_element * stats.n / 8
        dictionary = stats.kindnum * stats.size_c
        return (stats.size_c * stats.n) / (planes + dictionary)

    def cost_scale(self, stats: ColumnStats, calibration_kindnum: int) -> float:
        # building/decoding planes is O(n * Kindnum)
        return max(stats.kindnum, 1) / max(calibration_kindnum, 1)
