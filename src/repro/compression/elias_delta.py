"""Elias Delta encoding (ED) — eager, β = 0, aligned format.

Each value v is stored as the delta codeword of v + 1, padded to the
column-wide maximum codeword width ``EDDomain`` (Eq. 11).  Delta codewords
read as integers are ``x + floor(log2 x) * 2**floor(log2 x)`` — a strictly
increasing but *non-affine* map.  Aligned ED therefore supports equality
and order directly, while arithmetic aggregation (sum/avg) forces a decode,
which is why ED is the slowest β = 0 method in the paper's Fig. 8.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import CodecNotApplicable
from ..stats import ColumnStats
from .base import CAP_EQUALITY, CAP_ORDER, Codec, CompressedColumn
from .kernels import delta_codewords, delta_invert, pack_ints, unpack_ints


class EliasDeltaCodec(Codec):
    """Aligned Elias Delta encoding (the paper's ED)."""

    name = "ed"
    meta_types = {"width": int}
    is_lazy = False
    needs_decompression = False
    capabilities = frozenset({CAP_EQUALITY, CAP_ORDER})

    def applicable(self, stats: ColumnStats) -> bool:
        # the aligned codeword must both fit 8 bytes and stay within int64
        if not stats.all_positive_domain or stats.max_value >= (1 << 53):
            return False
        return stats.ed_domain_bytes <= 8

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        if values.min() < 0:
            raise CodecNotApplicable("Elias Delta cannot encode negative values")
        if int(values.max()) >= (1 << 53):
            raise CodecNotApplicable("Elias Delta supports values below 2^53 here")
        codes, bits = delta_codewords(values + 1)
        width = int((bits.max() + 7) // 8)
        if width > 8:
            raise CodecNotApplicable(
                "aligned Elias Delta codewords exceed 8 bytes for this column"
            )
        payload = pack_ints(codes, width, signed=False)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"width": width},
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        codes = unpack_ints(column.payload, int(column.meta["width"]), column.n)
        return delta_invert(codes) - 1

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 11: r = Size_C / EDDomain
        return stats.size_c / stats.ed_domain_bytes

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return unpack_ints(column.payload, int(column.meta["width"]), column.n)

    def encode_literal(self, column: CompressedColumn, value: int) -> Optional[int]:
        self._check_column(column)
        if value < 0:
            return None
        codes, _ = delta_codewords(np.array([value + 1], dtype=np.int64))
        return int(codes[0])

    def lower_bound(self, column: CompressedColumn, value: int) -> int:
        self._check_column(column)
        if value < 0:
            return 0
        codes, _ = delta_codewords(np.array([value + 1], dtype=np.int64))
        return int(codes[0])

    def decode_codes(self, column: CompressedColumn, codes: np.ndarray) -> np.ndarray:
        self._check_column(column)
        return delta_invert(np.asarray(codes, dtype=np.int64)) - 1
