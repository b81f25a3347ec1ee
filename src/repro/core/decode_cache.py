"""The server's one decode/morph point; it keeps nothing between batches.

Every full-column decode and every mid-pipeline format morph the server
performs goes through :class:`DecodeCache`: the analyzer's CSD009
sanctions a decode only here and in the codec package, and the benchmark
ledger times both methods as decompression.  Like the paper's server,
which decompresses a column only when the query needs it, batch by batch
(Sec. IV-B), the class holds no cross-batch state: each call decodes
afresh and the arrays it returns die with their batch.  Repeated payloads
are rare in a stream, so a content-addressed store would hash every
batch to save almost nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compression.base import Codec, CompressedColumn


class DecodeCache:
    """Stateless decode and morph, counted for the benchmark ledger."""

    #: always zero, since nothing is stored to hit or evict; kept because
    #: the ledger's ``_cache_counts`` (benchmarks/ledger/workloads.py)
    #: reports all five counters
    hits = 0
    evictions = 0
    morph_hits = 0

    def __init__(self) -> None:
        #: full-column decodes served
        self.misses = 0
        #: morphs (decode, then recompress under another codec) served
        self.morph_misses = 0

    def decompress(self, codec: "Codec", column: "CompressedColumn") -> np.ndarray:
        """``codec.decompress`` as a contiguous, read-only int64 array."""
        self.misses += 1
        values = np.ascontiguousarray(codec.decompress(column), dtype=np.int64)
        values.setflags(write=False)
        return values

    def morph(
        self, codec: "Codec", column: "CompressedColumn", target: "Codec"
    ) -> "CompressedColumn":
        """Recompress a column under ``target`` (decode, then encode)."""
        self.morph_misses += 1
        values = np.ascontiguousarray(codec.decompress(column), dtype=np.int64)
        return target.compress(values)
