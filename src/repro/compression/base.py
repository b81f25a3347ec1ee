"""Codec framework: the abstract codec, compressed columns, capabilities.

Design (DESIGN.md §2): a :class:`CompressedColumn` carries the codec
payload plus enough metadata for the server to either (a) run operators
*directly* on the compressed codes, or (b) decompress first when the codec
is one of the paper's "lightweight decompression-required" special cases
(β = 1: NSV, RLE, Bitmap) or the query needs a capability the codec lacks.

Capabilities
------------
``equality``
    codes are a bijection of values: group-by keys, ``==``/``!=``
    predicates and ``distinct`` run on codes.
``order``
    codes preserve ``<`` after :meth:`Codec.encode_literal` maps the query
    constant into code space: range predicates and min/max run on codes.
``affine``
    ``value = scale * code + offset``: sum/avg run on codes and are
    corrected once per window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..errors import CodecError, CodecNotApplicable
from ..stats import ColumnStats

CAP_EQUALITY = "equality"
CAP_ORDER = "order"
CAP_AFFINE = "affine"


@dataclass
class CompressedColumn:
    """A single compressed column of one batch.

    ``nbytes`` is the exact transmitted size (payload plus any metadata the
    server needs, e.g. the dictionary for DICT); the network channel charges
    this many bytes.
    """

    codec: str
    n: int
    payload: np.ndarray  # uint8 buffer (codec-specific layout)
    meta: Dict[str, Any] = field(default_factory=dict)
    nbytes: int = 0
    source_size_c: int = 8  # bytes per element before compression (Size_C)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise CodecError("compressed column cannot have negative length")
        if self.nbytes <= 0:
            self.nbytes = int(self.payload.nbytes)

    @property
    def ratio(self) -> float:
        """Achieved compression ratio r = uncompressed bytes / nbytes."""
        if self.nbytes == 0:
            return float("inf")
        return (self.n * self.source_size_c) / self.nbytes


class PlaneView:
    """Per-distinct-value bitmap access into one compressed column.

    The equality-only direct path for plane codecs (Bitmap, PLWAH): an
    ``==``/``!=`` predicate against a literal is answered by unpacking the
    single plane of that value — the other Kindnum − 1 planes stay packed.
    ``selection`` carries a pending row subset so a WHERE can narrow the
    view without materializing per-row codes.
    """

    def __init__(
        self,
        dictionary: np.ndarray,
        n: int,
        mask_fn: Callable[[int], np.ndarray],
        selection: Optional[np.ndarray] = None,
    ) -> None:
        self.dictionary = dictionary
        self.n = int(n)
        self._mask_fn = mask_fn
        self._selection = selection

    def __len__(self) -> int:
        return self.n

    def mask_of_value(self, value: int) -> np.ndarray:
        """Boolean row mask of ``column == value`` (all-false if absent)."""
        idx = int(np.searchsorted(self.dictionary, value))
        if idx >= self.dictionary.size or int(self.dictionary[idx]) != int(value):
            return np.zeros(self.n, dtype=bool)
        mask = self._mask_fn(idx)
        if self._selection is not None:
            mask = mask[self._selection]
        return mask

    def take(self, indices: np.ndarray) -> "PlaneView":
        indices = np.asarray(indices)
        selection = (
            indices if self._selection is None else self._selection[indices]
        )
        return PlaneView(self.dictionary, indices.size, self._mask_fn, selection)

    def decode_all(self) -> np.ndarray:
        """Fallback materialization: original values for every row."""
        out = np.empty(self.n, dtype=np.int64)
        covered = np.zeros(self.n, dtype=bool)
        for idx in range(int(self.dictionary.size)):
            mask = self._mask_fn(idx)
            if self._selection is not None:
                mask = mask[self._selection]
            out[mask] = self.dictionary[idx]
            covered |= mask
        if not covered.all():
            raise CodecError("bitmap planes do not cover every position")
        return out


class Codec(ABC):
    """A lightweight compression algorithm (Table I of the paper)."""

    #: Registry name, e.g. ``"ns"``.
    name: ClassVar[str] = ""
    #: α in Eq. 3: lazy codecs wait for the whole batch before compressing.
    is_lazy: ClassVar[bool] = False
    #: β in Eq. 7: whether the server must decompress before querying.
    needs_decompression: ClassVar[bool] = False
    #: Direct-processing capabilities (empty when β = 1).
    capabilities: ClassVar[FrozenSet[str]] = frozenset()
    #: Meta entries every column of this codec carries, with their value
    #: types (``int``, ``bool``, or ``np.ndarray`` of int64); the wire
    #: parser rejects a column that lacks one or carries another type.
    meta_types: ClassVar[Mapping[str, type]] = {}

    # ----- lifecycle ------------------------------------------------------

    def applicable(self, stats: ColumnStats) -> bool:
        """Whether this codec can encode a column with these statistics."""
        return True

    @abstractmethod
    def compress(self, values: np.ndarray) -> CompressedColumn:
        """Encode an int64 column; raises CodecNotApplicable when unusable."""

    @abstractmethod
    def decompress(self, column: CompressedColumn) -> np.ndarray:
        """Restore the original int64 column."""

    @abstractmethod
    def estimate_ratio(self, stats: ColumnStats) -> float:
        """Analytic compression ratio r of Sec. V (Eqs. 10-17)."""

    def cost_scale(self, stats: ColumnStats, calibration_kindnum: int) -> float:
        """Multiplier on the calibrated time model for this column.

        Most codecs cost O(n) regardless of content, but plane-based codecs
        (Bitmap, PLWAH) do O(n * Kindnum) work; they override this to scale
        the calibrated coefficients by the cardinality ratio between the
        target column and the calibration column.
        """
        return 1.0

    def estimate_transmitted_ratio(self, stats: ColumnStats) -> float:
        """Ratio including transmitted metadata (dictionary, base, ...).

        The paper's Eqs. 10-17 describe the payload only; the selector uses
        this refinement so that e.g. DICT on a near-unique column is not
        mistakenly chosen while its dictionary alone exceeds the raw data.
        Codecs without metadata inherit the plain estimate.
        """
        return self.estimate_ratio(stats)

    # ----- direct processing ---------------------------------------------

    def direct_codes(self, column: CompressedColumn) -> np.ndarray:
        """Materialize the compressed codes as an int64 array for kernels.

        Only meaningful for β = 0 codecs; the width-proportional memory
        traffic this models is what Eq. 8 divides by r'.
        """
        raise CodecError(f"codec {self.name!r} does not support direct processing")

    def affine_params(self, column: CompressedColumn) -> Tuple[int, int]:
        """(scale, offset) such that value = scale * code + offset."""
        raise CodecError(f"codec {self.name!r} is not affine")

    def encode_literal(self, column: CompressedColumn, value: int) -> Optional[int]:
        """Map a query constant into code space for direct predicates.

        Returns ``None`` when the constant cannot occur in the column under
        an equality predicate (e.g. a value absent from the dictionary);
        order-capable codecs must instead return a code that preserves the
        comparison result.
        """
        raise CodecError(f"codec {self.name!r} cannot encode literals")

    def lower_bound(self, column: CompressedColumn, value: int) -> int:
        """Smallest code whose decoded value is >= ``value``.

        Order-capable codecs use this to translate range predicates into
        code space: ``col >= v`` becomes ``code >= lower_bound(v)`` and, in
        the integer domain, ``col > v`` becomes ``code >= lower_bound(v+1)``.
        """
        raise CodecError(f"codec {self.name!r} does not preserve order")

    def decode_codes(self, column: CompressedColumn, codes: np.ndarray) -> np.ndarray:
        """Map an array of codes back to original values (for output)."""
        raise CodecError(f"codec {self.name!r} cannot decode individual codes")

    # ----- structural views (β = 1 codecs with exploitable layout) --------

    def run_view(
        self, column: CompressedColumn
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(run values, run lengths) when the payload is run-structured.

        Run values are *original* values, so operators can filter and
        aggregate at run granularity (MorphStore-style) and only expand
        to per-row arrays when an operator genuinely needs them.  ``None``
        (the default) means no run structure is available.
        """
        return None

    def plane_view(self, column: CompressedColumn) -> Optional["PlaneView"]:
        """A :class:`PlaneView` when the payload is per-value bit planes.

        Serves equality-only uses without decompressing: a predicate
        unpacks one plane instead of rebuilding the whole column.  ``None``
        (the default) means no plane structure is available.
        """
        return None

    # ----- misc -----------------------------------------------------------

    def _check_column(self, column: CompressedColumn) -> None:
        if column.codec != self.name:
            raise CodecError(
                f"column was compressed with {column.codec!r}, not {self.name!r}"
            )

    @staticmethod
    def _as_int64(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 1:
            raise CodecError("codecs operate on 1-D columns")
        if values.size == 0:
            raise CodecNotApplicable("cannot compress an empty column")
        return np.ascontiguousarray(values, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class AffineCodec(Codec):
    """Shared direct-processing glue for codecs with value = code + offset."""

    capabilities = frozenset({CAP_EQUALITY, CAP_ORDER, CAP_AFFINE})

    def affine_params(self, column: CompressedColumn) -> Tuple[int, int]:
        self._check_column(column)
        return 1, int(column.meta.get("offset", 0))

    def encode_literal(self, column: CompressedColumn, value: int) -> Optional[int]:
        self._check_column(column)
        return int(value) - int(column.meta.get("offset", 0))

    def lower_bound(self, column: CompressedColumn, value: int) -> int:
        self._check_column(column)
        return int(value) - int(column.meta.get("offset", 0))

    def decode_codes(self, column: CompressedColumn, codes: np.ndarray) -> np.ndarray:
        self._check_column(column)
        offset = int(column.meta.get("offset", 0))
        return np.asarray(codes, dtype=np.int64) + offset
