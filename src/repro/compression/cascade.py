"""Cascaded codec families — two-stage codecs behind the ``Codec`` interface.

The adaptive-column-compression-family line of work (PAPERS.md) shows that
*cascades* — a cheap value-to-code transform followed by a second codec on
the transformed codes — dominate single codecs on many real distributions:
DICT→RLE compresses runny low-cardinality columns past either stage alone,
DELTA→NS turns slowly-varying timestamps into one-byte packed deltas, and
BD→NSV narrows a shifted domain per element.  A cascade is itself a codec:
``CascadeCodec`` chains a :class:`StageTransform` (stage 1, exact inverse,
tiny metadata) with an existing registered codec (stage 2) on the int64
code array, so every cascade inherits the registry, the wire format, the
selector, and both kernel dispatch modes for free.

Wire layout: the payload *is* the stage-2 payload; the column metadata
holds the stage-1 metadata under its own keys plus every stage-2 meta
entry under an ``s2_`` prefix, all of which are wire-serializable types.
``nbytes`` charges the stage-2 transmitted size plus the stage-1 metadata
(dictionary / base / first value), mirroring how DICT charges its
dictionary.

Cascades are β = 1 (the server reconstructs before value-level querying)
but expose the same structural escape hatches as their stage-2 codec:
``dict+rle`` yields a :meth:`run_view` in *original* values and
``dict+bitmap`` a :meth:`plane_view` whose planes are addressed by
original values — the sorted, order-preserving stage-1 dictionary makes
both views exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import CodecError
from ..stats import ColumnStats
from ..types import bytes_for_signed, bytes_for_unsigned
from .base import Codec, CompressedColumn, PlaneView
from .bitmap import BitmapCodec
from .kernels import dict_encode
from .null_suppression import NullSuppressionCodec
from .null_suppression_variable import NullSuppressionVariableCodec
from .rle import RunLengthCodec

#: prefix under which stage-2 metadata rides in the cascade column's meta
STAGE2_META_PREFIX = "s2_"


def _clip_width_histogram(histogram: tuple, max_width: int) -> tuple:
    """Clip a per-element width histogram down to ``max_width`` bytes."""
    out = [0] * 9
    for width, count in enumerate(histogram[:9]):
        if count and width:
            out[min(width, max_width)] += count
    return tuple(out)


class StageTransform(ABC):
    """Stage 1 of a cascade: an exact, cheap value→code transform."""

    name: ClassVar[str] = ""
    #: Stage-1 meta entries and their value types (see ``Codec.meta_types``).
    meta_types: ClassVar[Mapping[str, type]] = {}

    @abstractmethod
    def encode(self, values: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        """(int64 code array of the same length, wire-serializable meta)."""

    @abstractmethod
    def decode(self, codes: np.ndarray, meta: Dict[str, Any]) -> np.ndarray:
        """Exact inverse of :meth:`encode`."""

    @abstractmethod
    def transformed_stats(self, stats: ColumnStats) -> ColumnStats:
        """Approximate statistics of the code array, for Eqs. 10-17."""

    def applicable(self, stats: ColumnStats) -> bool:
        return True

    def meta_nbytes(self, meta: Dict[str, Any]) -> int:
        """Transmitted bytes of the stage-1 metadata."""
        return 8

    def meta_nbytes_estimate(self, stats: ColumnStats) -> int:
        """Estimated transmitted metadata bytes, from statistics alone."""
        return 8


class DictStage(StageTransform):
    """Sorted-dictionary codes: order-preserving, codes are 0..Kindnum-1."""

    name = "dict"
    meta_types = {"dictionary": np.ndarray}

    def encode(self, values: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        dictionary, codes = dict_encode(values)
        return codes.astype(np.int64, copy=False), {"dictionary": dictionary}

    def decode(self, codes: np.ndarray, meta: Dict[str, Any]) -> np.ndarray:
        dictionary = meta["dictionary"]
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= dictionary.size):
            raise CodecError("cascade dictionary code out of range")
        return dictionary[codes]

    def transformed_stats(self, stats: ColumnStats) -> ColumnStats:
        width = bytes_for_unsigned(max(stats.kindnum - 1, 0))
        return ColumnStats(
            n=stats.n,
            size_c=8,
            min_value=0,
            max_value=max(stats.kindnum - 1, 0),
            kindnum=stats.kindnum,
            avg_run_length=stats.avg_run_length,
            value_domain_max=width,
            value_domain_sum=width * stats.n,
            width_histogram=tuple(
                stats.n if w == width else 0 for w in range(9)
            ),
            delta_min=-(max(stats.kindnum - 1, 0)),
            delta_max=max(stats.kindnum - 1, 0),
        )

    def meta_nbytes(self, meta: Dict[str, Any]) -> int:
        return int(meta["dictionary"].nbytes)

    def meta_nbytes_estimate(self, stats: ColumnStats) -> int:
        return stats.kindnum * stats.size_c


class DeltaStage(StageTransform):
    """Consecutive differences with a leading zero; decode is a prefix sum.

    Differences wrap in two's complement and the prefix sum wraps back, so
    the transform is an exact inverse even at the int64 extremes (the same
    trade ``deltachain`` makes).
    """

    name = "delta"
    meta_types = {"first": int}

    def encode(self, values: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        codes = np.zeros(values.size, dtype=np.int64)
        if values.size > 1:
            codes[1:] = np.diff(values)
        return codes, {"first": int(values[0])}

    def decode(self, codes: np.ndarray, meta: Dict[str, Any]) -> np.ndarray:
        out = np.cumsum(np.asarray(codes, dtype=np.int64), dtype=np.int64)
        out += int(meta["first"])
        return out

    def transformed_stats(self, stats: ColumnStats) -> ColumnStats:
        lo = min(stats.delta_min, 0)
        hi = max(stats.delta_max, 0)
        width = bytes_for_signed(lo, hi)
        return ColumnStats(
            n=stats.n,
            size_c=8,
            min_value=lo,
            max_value=hi,
            kindnum=stats.kindnum,
            avg_run_length=1.0,
            value_domain_max=width,
            value_domain_sum=width * stats.n,
            width_histogram=tuple(
                stats.n if w == width else 0 for w in range(9)
            ),
            delta_min=lo,
            delta_max=hi,
        )


class BaseDeltaStage(StageTransform):
    """Deltas from the batch minimum: codes are non-negative and narrow."""

    name = "bd"
    meta_types = {"base": int}

    def encode(self, values: np.ndarray) -> Tuple[np.ndarray, Dict[str, Any]]:
        base = int(values.min())
        return values - base, {"base": base}

    def decode(self, codes: np.ndarray, meta: Dict[str, Any]) -> np.ndarray:
        return np.asarray(codes, dtype=np.int64) + int(meta["base"])

    def applicable(self, stats: ColumnStats) -> bool:
        # values - min must not overflow the int64 code domain
        return stats.max_value - stats.min_value < (1 << 63)

    def transformed_stats(self, stats: ColumnStats) -> ColumnStats:
        span = stats.max_value - stats.min_value
        width = bytes_for_unsigned(span)
        return ColumnStats(
            n=stats.n,
            size_c=8,
            min_value=0,
            max_value=span,
            kindnum=stats.kindnum,
            avg_run_length=stats.avg_run_length,
            value_domain_max=width,
            value_domain_sum=width * stats.n,
            width_histogram=_clip_width_histogram(stats.width_histogram, width),
            delta_min=stats.delta_min,
            delta_max=stats.delta_max,
        )


class CascadeCodec(Codec):
    """Two-stage codec: a stage transform then a registered codec on codes.

    Concrete cascades are subclasses carrying the stage pair as class
    attributes, so the registry instantiates them with no arguments like
    any other codec.
    """

    is_lazy = True
    needs_decompression = True
    capabilities = frozenset()

    #: stage 1 transform and stage 2 codec, set by each concrete cascade
    stage1: ClassVar[StageTransform]
    stage2: ClassVar[Codec]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.meta_types = {
            **cls.stage1.meta_types,
            **{
                STAGE2_META_PREFIX + key: kind
                for key, kind in cls.stage2.meta_types.items()
            },
        }

    # ----- lifecycle ------------------------------------------------------

    def applicable(self, stats: ColumnStats) -> bool:
        if not self.stage1.applicable(stats):
            return False
        return self.stage2.applicable(self.stage1.transformed_stats(stats))

    def compress(self, values: np.ndarray) -> CompressedColumn:
        values = self._as_int64(values)
        codes, s1_meta = self.stage1.encode(values)
        inner = self.stage2.compress(codes)
        meta: Dict[str, Any] = dict(s1_meta)
        for key, value in inner.meta.items():
            meta[STAGE2_META_PREFIX + key] = value
        return CompressedColumn(
            codec=self.name,
            n=int(values.size),
            payload=inner.payload,
            meta=meta,
            nbytes=inner.nbytes + self.stage1.meta_nbytes(s1_meta),
            source_size_c=8,
        )

    def decompress(self, column: CompressedColumn) -> np.ndarray:
        self._check_column(column)
        codes = self.stage2.decompress(self.inner_column(column))
        return self.stage1.decode(codes, column.meta)

    def inner_column(self, column: CompressedColumn) -> CompressedColumn:
        """The stage-2 column view sharing this column's payload."""
        self._check_column(column)
        return CompressedColumn(
            codec=self.stage2.name,
            n=column.n,
            payload=column.payload,
            meta={
                key[len(STAGE2_META_PREFIX) :]: value
                for key, value in column.meta.items()
                if key.startswith(STAGE2_META_PREFIX)
            },
            nbytes=max(int(column.payload.nbytes), 1),
            source_size_c=8,
        )

    # ----- ratio and cost estimation (Eqs. 1-9 generalized) ---------------

    def estimate_ratio(self, stats: ColumnStats) -> float:
        transformed = self.stage1.transformed_stats(stats)
        r2 = self.stage2.estimate_ratio(transformed)
        if r2 <= 0:
            return 0.0
        # stage-2 payload bytes per element on the code array, related back
        # to the *original* element size
        return stats.size_c * r2 / transformed.size_c

    def estimate_transmitted_ratio(self, stats: ColumnStats) -> float:
        transformed = self.stage1.transformed_stats(stats)
        r2 = self.stage2.estimate_transmitted_ratio(transformed)
        if r2 <= 0:
            return 0.0
        payload = transformed.size_c * stats.n / r2
        total = payload + self.stage1.meta_nbytes_estimate(stats)
        return (stats.size_c * stats.n) / total

    def cost_scale(self, stats: ColumnStats, calibration_kindnum: int) -> float:
        return self.stage2.cost_scale(
            self.stage1.transformed_stats(stats), calibration_kindnum
        )


class DictRleCascade(CascadeCodec):
    """DICT→RLE: run-length on dictionary codes; runs decode to values."""

    name = "dict+rle"
    stage1 = DictStage()
    stage2 = RunLengthCodec()

    def run_view(
        self, column: CompressedColumn
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        self._check_column(column)
        view = self.stage2.run_view(self.inner_column(column))
        if view is None:  # pragma: no cover - rle always has runs
            return None
        code_runs, run_lengths = view
        return self.stage1.decode(code_runs, column.meta), run_lengths


class DeltaNsCascade(CascadeCodec):
    """DELTA→NS: fixed-width packed consecutive differences."""

    name = "delta+ns"
    stage1 = DeltaStage()
    stage2 = NullSuppressionCodec()


class BdNsvCascade(CascadeCodec):
    """BD→NSV: per-element-width deltas from the batch minimum."""

    name = "bd+nsv"
    stage1 = BaseDeltaStage()
    stage2 = NullSuppressionVariableCodec()


class DictBitmapCascade(CascadeCodec):
    """DICT→BITMAP: one plane per distinct value, addressed by value."""

    name = "dict+bitmap"
    stage1 = DictStage()
    stage2 = BitmapCodec()

    def plane_view(self, column: CompressedColumn) -> Optional[PlaneView]:
        self._check_column(column)
        inner_view = self.stage2.plane_view(self.inner_column(column))
        if inner_view is None:  # pragma: no cover - bitmap always has planes
            return None
        # stage-1 codes are order-preserving and the inner dictionary is
        # sorted codes, so mapping codes back through the stage-1
        # dictionary keeps the plane order aligned with sorted values
        dictionary = self.stage1.decode(inner_view.dictionary, column.meta)
        return PlaneView(dictionary, column.n, inner_view._mask_fn)
