"""Execution columns: the operator kernels' view of (compressed) data.

An :class:`ExecColumn` is either a *direct* view (codes straight out of the
compressed payload, with the codec's affine/order/equality semantics) or a
*decoded* view (plain values).  Kernels never branch on codec names — they
ask the column for the semantics they need, which is the "map operators to
compressed operators with minimal modification" design of Sec. IV-B.

Two structural refinements let β = 1 codecs skip the expansion step:

* a *run* column holds ``(run values, run lengths)`` from
  :meth:`~repro.compression.base.Codec.run_view`; predicates and window
  aggregates work at run granularity and per-row values materialize only
  when an operator genuinely indexes rows;
* a *plane* column holds a :class:`~repro.compression.base.PlaneView`;
  equality predicates unpack a single value's bitmap and the per-row value
  array is never built at all.

Both carry decoded-value semantics (code == value), so every kernel that
does fall back to ``codes`` still computes the right answer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..compression.base import (
    CAP_AFFINE,
    CAP_EQUALITY,
    CAP_ORDER,
    Codec,
    CompressedColumn,
    PlaneView,
)
from ..errors import PlanningError

RunPair = Tuple[np.ndarray, np.ndarray]


class ExecColumn:
    """One column as seen by the kernels."""

    def __init__(
        self,
        name: str,
        codes: Optional[np.ndarray] = None,
        codec: Optional[Codec] = None,
        compressed: Optional[CompressedColumn] = None,
        runs: Optional[RunPair] = None,
        planes: Optional[PlaneView] = None,
    ) -> None:
        if (codec is None) != (compressed is None):
            raise PlanningError("direct ExecColumn needs both codec and payload")
        if codes is None and runs is None and planes is None:
            raise PlanningError("ExecColumn needs codes, runs, or planes")
        self.name = name
        self.codec = codec
        self.compressed = compressed
        self._codes = codes
        self._runs = runs
        self._planes = planes
        if codes is not None:
            self._n = int(codes.size)
        elif runs is not None:
            self._n = int(runs[1].sum())
        else:
            self._n = len(planes)  # type: ignore[arg-type]

    # ----- lazy materialization --------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Per-row codes, expanding a run/plane view on first access."""
        if self._codes is None:
            if self._runs is not None:
                self._codes = np.repeat(self._runs[0], self._runs[1])
            else:
                assert self._planes is not None
                # lint: force-decode (plane-to-row fallback, once per column)
                self._codes = self._planes.decode_all()
        return self._codes

    @property
    def pending_runs(self) -> Optional[RunPair]:
        """(run values, run lengths) while no per-row array exists yet."""
        return self._runs if self._codes is None else None

    @property
    def pending_planes(self) -> Optional[PlaneView]:
        """The plane view while no per-row array exists yet."""
        return self._planes if self._codes is None else None

    # ----- semantics -------------------------------------------------------

    @property
    def is_direct(self) -> bool:
        """True when ``codes`` are compressed codes, not decoded values."""
        return self.codec is not None

    @property
    def supports_equality(self) -> bool:
        return not self.is_direct or CAP_EQUALITY in self.codec.capabilities

    @property
    def supports_order(self) -> bool:
        return not self.is_direct or CAP_ORDER in self.codec.capabilities

    @property
    def affine(self) -> Optional[Tuple[int, int]]:
        """(scale, offset) with value = scale * code + offset, or None."""
        if not self.is_direct:
            return (1, 0)
        if CAP_AFFINE in self.codec.capabilities:
            return self.codec.affine_params(self.compressed)
        return None

    # ----- value access ----------------------------------------------------

    def values(self) -> np.ndarray:
        """Original values for all rows (used for output or fallbacks)."""
        if not self.is_direct:
            return self.codes
        # lint: force-decode (sanctioned output-materialization path)
        return self.codec.decode_codes(self.compressed, self.codes)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Original values of a (small) selection of codes."""
        if not self.is_direct:
            return np.asarray(codes, dtype=np.int64)
        # lint: force-decode (bounded: callers pass per-window selections)
        return self.codec.decode_codes(self.compressed, codes)

    def encode_literal(self, value: int) -> Optional[int]:
        """Exact code of a constant for equality predicates (None = absent)."""
        if not self.is_direct:
            return int(value)
        return self.codec.encode_literal(self.compressed, value)

    def lower_bound(self, value: int) -> int:
        """Smallest code whose value is >= ``value`` (order predicates)."""
        if not self.is_direct:
            return int(value)
        return self.codec.lower_bound(self.compressed, value)

    # ----- structural helpers ----------------------------------------------

    def slice(self, start: int, stop: int) -> "ExecColumn":
        if self._codes is None and self._runs is not None:
            return ExecColumn(self.name, runs=_slice_runs(self._runs, start, stop))
        if self._codes is None and self._planes is not None:
            start, stop, _ = slice(start, stop).indices(self._n)
            return ExecColumn(
                self.name, planes=self._planes.take(np.arange(start, stop))
            )
        return ExecColumn(
            self.name, self.codes[start:stop], self.codec, self.compressed
        )

    def take(self, indices: np.ndarray) -> "ExecColumn":
        if self._codes is None and self._planes is not None:
            indices = _as_positions(indices, self._n)
            return ExecColumn(self.name, planes=self._planes.take(indices))
        if self._codes is None and self._runs is not None:
            # Map selected rows to their runs instead of expanding all rows:
            # O(k log runs) for k survivors versus O(n) for the expansion.
            indices = _as_positions(indices, self._n)
            run_values, run_lengths = self._runs
            ends = np.cumsum(run_lengths)
            run_of = np.searchsorted(ends, indices, side="right")
            return ExecColumn(self.name, run_values[run_of])
        return ExecColumn(self.name, self.codes[indices], self.codec, self.compressed)

    def __len__(self) -> int:
        return self._n


def _as_positions(indices: np.ndarray, n: int) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.dtype == bool:
        if indices.size != n:
            raise PlanningError("boolean selection length mismatch")
        return np.flatnonzero(indices)
    return indices


def _slice_runs(runs: RunPair, start: int, stop: int) -> RunPair:
    """Restrict runs to rows [start, stop) without expanding them."""
    run_values, run_lengths = runs
    n = int(run_lengths.sum())
    start, stop, _ = slice(start, stop).indices(n)
    ends = np.cumsum(run_lengths)
    starts = ends - run_lengths
    first = int(np.searchsorted(ends, start, side="right"))
    last = int(np.searchsorted(starts, stop, side="left"))
    clipped = np.minimum(ends[first:last], stop) - np.maximum(starts[first:last], start)
    return run_values[first:last], clipped


def decoded_column(name: str, values: np.ndarray) -> ExecColumn:
    """An ExecColumn over plain values."""
    return ExecColumn(name, np.ascontiguousarray(values, dtype=np.int64))
