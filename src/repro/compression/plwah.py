"""PLWAH — Position List Word Aligned Hybrid compressed bitmaps.

The paper's Sec. VII-D extension: bitmap planes (one per distinct value,
as in :mod:`.bitmap`) are themselves compressed with the PLWAH scheme of
Deliège & Pedersen [41].  We use 32-bit words:

* literal word:  bit 31 = 0, bits 0..30 carry 31 bitmap bits;
* fill word:     bit 31 = 1, bit 30 = fill bit, bits 25..29 a position
  list entry, bits 0..24 the run length in 31-bit groups.  A non-zero
  position p means the group following the zero-fill contained exactly one
  set bit at index p - 1 and was absorbed into the fill word.

β = 1: the server decompresses planes before querying.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from .base import Codec, CompressedColumn, PlaneView
from .bitmap import build_bitplanes
from .kernels import from_groups, plwah_decode, plwah_encode, to_groups

GROUP_BITS = 31
LITERAL_ONES = (1 << GROUP_BITS) - 1
MAX_FILL = (1 << 25) - 1

_FILL_FLAG = 1 << 31
_FILL_ONE = 1 << 30
_POS_SHIFT = 25
_POS_MASK = 0x1F

# run-loop encode/decode live in kernels (vectorized) and scalar_ref
# (the original per-group loops); the public names dispatch between them
__all__ = [
    "GROUP_BITS",
    "LITERAL_ONES",
    "MAX_FILL",
    "PLWAHCodec",
    "from_groups",
    "plwah_decode",
    "plwah_encode",
    "to_groups",
]

_to_groups = to_groups
_from_groups = from_groups


class PLWAHCodec(Codec):
    """Bitmap planes compressed with PLWAH (Sec. VII-D extension)."""

    name = "plwah"
    meta_types = {"dictionary": np.ndarray, "plane_words": np.ndarray}
    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        dictionary, planes = build_bitplanes(values)
        encoded = [plwah_encode(plane) for plane in planes]
        lengths = np.asarray([w.size for w in encoded], dtype=np.int64)
        payload = (
            np.concatenate(encoded).view(np.uint8)
            if encoded
            else np.zeros(0, dtype=np.uint8)
        )
        nbytes = int(lengths.sum()) * 4 + dictionary.nbytes + lengths.nbytes
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=payload,
            meta={"dictionary": dictionary, "plane_words": lengths},
            nbytes=nbytes,
            source_size_c=8,
        )

    def _streams(self, column: CompressedColumn) -> Tuple[np.ndarray, ...]:
        """(dictionary, per-plane word counts, payload words), size-checked."""
        self._check_column(column)
        dictionary = column.meta["dictionary"]
        lengths = np.asarray(column.meta["plane_words"], dtype=np.int64)
        if lengths.size != dictionary.size or (lengths < 0).any() or (
            column.payload.size != 4 * int(lengths.sum())
        ):
            raise CodecError("PLWAH payload size does not match its planes")
        words = column.payload.view(np.uint32)
        # each plane's words must cover n bits before anything n long exists
        fill = (words & _FILL_FLAG) != 0
        absorbed = fill & (((words >> _POS_SHIFT) & _POS_MASK) != 0)
        groups = np.where(fill, words & MAX_FILL, 1) + absorbed
        covered = np.concatenate([[0], np.cumsum(groups, dtype=np.int64)])
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        per_plane = covered[bounds[1:]] - covered[bounds[:-1]]
        if (per_plane != -(-column.n // GROUP_BITS)).any() or (
            column.n and not lengths.size
        ):
            raise CodecError("PLWAH planes do not cover the column's n rows")
        return dictionary, lengths, words

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        dictionary, lengths, words = self._streams(column)
        out = np.full(column.n, -1, dtype=np.int64)
        offset = 0
        for code, count in enumerate(lengths):
            plane_words = words[offset : offset + int(count)]
            offset += int(count)
            bits = plwah_decode(plane_words, column.n)
            out[bits] = code
        if (out < 0).any():
            raise CodecError("PLWAH planes do not cover every position")
        return dictionary[out]

    def plane_view(self, column: CompressedColumn) -> PlaneView:
        """Equality predicates decode one PLWAH stream; the rest stay packed."""
        dictionary, lengths, words = self._streams(column)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        n = column.n

        def mask_fn(idx: int) -> np.ndarray:
            plane_words = words[int(offsets[idx]) : int(offsets[idx + 1])]
            return plwah_decode(plane_words, n)

        return PlaneView(dictionary, n, mask_fn)

    def estimate_ratio(self, stats: ColumnStats) -> float:
        """Approximate ratio from run structure.

        Each plane is dominated by zero fills; with average run length L the
        value's plane has about n/L literal-or-absorbed words per plane
        appearance.  We approximate the word count as one fill + one
        absorbed position per occurrence run, i.e. ~2 words per run spread
        over Kindnum planes, plus per-plane constant overhead.
        """
        runs = stats.n / max(stats.avg_run_length, 1.0)
        words = 2.0 * runs + 2.0 * stats.kindnum
        nbytes = words * 4 + stats.kindnum * 8
        return (stats.size_c * stats.n) / nbytes

    def cost_scale(self, stats: ColumnStats, calibration_kindnum: int) -> float:
        # one PLWAH stream per plane: O(n * Kindnum) like plain Bitmap
        return max(stats.kindnum, 1) / max(calibration_kindnum, 1)
