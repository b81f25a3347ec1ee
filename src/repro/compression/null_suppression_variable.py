"""Null Suppression with variable length (NSV) — eager, β = 1.

Every element is stored at its own significant width, chosen from four
machine-friendly widths, with a 2-bit length descriptor per element (the
``Size_B / 4`` descriptor bytes in Eq. 13).  The payload is not
element-aligned, so the server must decompress before querying — NSV is one
of the paper's "lightweight decompression-required" special cases, and its
descriptor-translation cost is why it dominates decompression time in
Fig. 8.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import Codec, CompressedColumn
from .kernels import nsv_pack, nsv_unpack

#: The four encodable widths; a 2-bit descriptor selects one.
WIDTH_CHOICES = np.array([1, 2, 4, 8], dtype=np.int64)


class NullSuppressionVariableCodec(Codec):
    """Per-element-width leading-zero suppression (the paper's NSV)."""

    name = "nsv"
    meta_types = {"signed": bool, "desc_nbytes": int}
    is_lazy = False
    needs_decompression = True
    capabilities = frozenset()

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        n = int(values.size)
        signed = bool((values < 0).any())
        desc_bytes, data = nsv_pack(values, signed)
        payload = np.concatenate([desc_bytes, data])
        return CompressedColumn(
            codec=self.name,
            n=n,
            payload=payload,
            meta={"signed": signed, "desc_nbytes": int(desc_bytes.size)},
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        n = column.n
        try:
            desc_nbytes = int(column.meta["desc_nbytes"])
            signed = bool(column.meta["signed"])
        except KeyError as exc:
            raise CodecError(f"nsv column is missing meta entry {exc}") from exc
        if desc_nbytes < 0 or desc_nbytes > column.payload.size:
            raise CodecError("nsv payload truncated: descriptor section")
        if desc_nbytes * 4 < n:
            raise CodecError(
                f"nsv descriptor section covers {desc_nbytes * 4} elements, "
                f"column claims {n}"
            )
        desc_bytes = column.payload[:desc_nbytes]
        data = column.payload[desc_nbytes:]
        return nsv_unpack(desc_bytes, data, n, signed)

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 13 with the implementation's width choices: descriptors cost
        # Size_B / 4 bytes and each element its (rounded-up) own width.
        data_bytes = 0
        for exact_width, count in enumerate(stats.width_histogram):
            if count and exact_width:
                mapped = int(WIDTH_CHOICES[np.searchsorted(WIDTH_CHOICES, exact_width)])
                data_bytes += mapped * count
        denominator = stats.n / 4 + data_bytes
        return (stats.size_c * stats.n) / denominator
