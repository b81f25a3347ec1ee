"""Delta-chain encoding — lazy, β = 1 (pool extension, like PLWAH).

Stores the first value verbatim and every subsequent element as its
difference from the predecessor, at the fixed width the widest delta
needs.  Slowly-varying columns — stream timestamps above all — compress to
one byte per element or less of the Smart Grid's 8-byte timestamps.

Reconstruction is a prefix sum, so elements are not independently
addressable: the server must decompress before querying (β = 1), the same
trade RLE makes.  This codec is not part of the paper's Table I; it is the
kind of scheme Sec. VII-D invites integrating, and the pool-extension
benchmark uses it alongside PLWAH.
"""

from __future__ import annotations

import numpy as np

from ..stats import ColumnStats
from .base import Codec, CompressedColumn
from .kernels import pack_ints, unpack_ints


class DeltaChainCodec(Codec):
    """Successive-difference encoding with fixed-width deltas."""

    name = "deltachain"
    meta_types = {"first": int, "width": int}
    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    #: transmitted metadata: the 8-byte first value
    META_BYTES = 8

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        first = int(values[0])
        deltas = np.diff(values)
        if deltas.size == 0:
            payload = np.zeros(0, dtype=np.uint8)
            width = 1
        else:
            lo, hi = int(deltas.min()), int(deltas.max())
            from ..types import bytes_for_signed

            width = bytes_for_signed(lo, hi)
            payload = pack_ints(deltas, width, signed=True)
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"first": first, "width": width},
            nbytes=payload.nbytes + self.META_BYTES,
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        first = int(column.meta["first"])
        width = int(column.meta["width"])
        # the payload vouches for n before n values are allocated
        deltas = unpack_ints(column.payload, width, max(column.n - 1, 0), signed=True)
        out = np.empty(column.n, dtype=np.int64)
        if column.n:
            out[0] = first
            np.cumsum(deltas, out=out[1:])
            out[1:] += first
        return out

    def estimate_ratio(self, stats: ColumnStats) -> float:
        # one delta of delta_domain_bytes per element (the leading value
        # amortizes away over the batch)
        return stats.size_c / stats.delta_domain_bytes
