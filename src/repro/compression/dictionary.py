"""Dictionary encoding (DICT) — lazy, β = 0.

Maintains a dictionary of the distinct values of a batch and replaces each
element by its index (Eq. 16).  We keep the dictionary *sorted*, which makes
codes order-preserving: group-by, distinct, equality and range predicates
all run directly on codes; only arithmetic aggregation needs a (cheap,
gather-based) decode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import CAP_EQUALITY, CAP_ORDER, Codec, CompressedColumn
from .kernels import dict_pack, unpack_ints


class DictionaryCodec(Codec):
    """Order-preserving dictionary encoding (the paper's DICT)."""

    name = "dict"
    meta_types = {"dictionary": np.ndarray, "width": int}
    is_lazy = True
    needs_decompression = False
    capabilities = frozenset({CAP_EQUALITY, CAP_ORDER})

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        dictionary, width, payload = dict_pack(values)
        nbytes = payload.nbytes + dictionary.nbytes
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"dictionary": dictionary, "width": width},
            nbytes=nbytes,
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return _lookup(column.meta["dictionary"], self.direct_codes(column))

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # Eq. 16: r = Size_C / ceil(log2(Kindnum) / 8)
        return stats.size_c / stats.dict_code_bytes

    def estimate_transmitted_ratio(self, stats: ColumnStats) -> float:
        codes = stats.dict_code_bytes * stats.n
        dictionary = stats.kindnum * stats.size_c
        return (stats.size_c * stats.n) / (codes + dictionary)

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        return unpack_ints(column.payload, int(column.meta["width"]), column.n)

    def encode_literal(self, column: CompressedColumn, value: int) -> Optional[int]:
        self._check_column(column)
        dictionary = column.meta["dictionary"]
        idx = int(np.searchsorted(dictionary, value))
        if idx < dictionary.size and int(dictionary[idx]) == int(value):
            return idx
        return None

    def lower_bound(self, column: CompressedColumn, value: int) -> int:
        self._check_column(column)
        return int(np.searchsorted(column.meta["dictionary"], value, side="left"))

    def decode_codes(self, column: CompressedColumn, codes: np.ndarray) -> np.ndarray:
        self._check_column(column)
        return _lookup(column.meta["dictionary"], np.asarray(codes, dtype=np.int64))


def _lookup(dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``dictionary[codes]``, with every int64 code checked in range first."""
    # one pass checks both ends: a negative code is huge as unsigned
    if codes.size and codes.view(np.uint64).max() >= dictionary.size:
        raise CodecError("dictionary code out of range")
    return dictionary[codes]
