"""Elias Gamma encoding (EG) — eager, β = 0, aligned format.

Each value v is encoded as the gamma codeword of v + 1 (the shift admits
zeros; columns with negatives are not applicable, matching the paper's note
on the Linear Road Benchmark).  The aligned format pads every codeword to
``EGDomain`` bytes — the maximum codeword width in the column (Eq. 10) — so
the compressed column stays structured.  Because a gamma codeword read as
an integer equals its value, aligned EG codes are ``v + 1``: equality,
order and affine direct processing all hold, just at roughly twice the
width Null Suppression would use, which is exactly why EG loses to NS in
the paper's Fig. 5/8.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecNotApplicable
from ..stats import ColumnStats
from .base import AffineCodec, CompressedColumn
from .kernels import gamma_codewords, pack_ints, unpack_ints


class EliasGammaCodec(AffineCodec):
    """Aligned Elias Gamma encoding (the paper's EG)."""

    name = "eg"
    meta_types = {"width": int, "offset": int}
    is_lazy = False
    needs_decompression = False

    def applicable(self, stats: ColumnStats) -> bool:
        # the aligned codeword must fit 8 bytes: gamma bits 2n+1 <= 64
        return stats.all_positive_domain and stats.max_value + 1 < (1 << 32)

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        if values.min() < 0:
            raise CodecNotApplicable("Elias Gamma cannot encode negative values")
        codes, bits = gamma_codewords(values + 1)
        width = int((bits.max() + 7) // 8)
        if width > 8:
            raise CodecNotApplicable(
                "aligned Elias Gamma codewords exceed 8 bytes for this column"
            )
        payload = pack_ints(codes, width, signed=False)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"width": width, "offset": -1},
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        codes = unpack_ints(column.payload, int(column.meta["width"]), column.n)
        return codes - 1

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 10: r = Size_C / EGDomain
        return stats.size_c / stats.eg_domain_bytes

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return unpack_ints(column.payload, int(column.meta["width"]), column.n)
