"""Window semantics: count-based sliding windows and partition windows.

The dialect of Table III uses three window forms:

* ``[range N slide M]`` — count-based sliding window of N tuples advancing
  by M tuples;
* ``[range unbounded]`` — per-tuple pass-through (used by Q3's derived
  stream);
* ``[partition by col rows K]`` — the most recent K tuples per partition
  key (Q3's "latest position per vehicle").

Sliding windows may span batches; :class:`SlidingWindowBuffer` implements
the paper's *batch buffer* (Sec. VI): it retains the tail of the previous
batch so cross-batch windows are computed without re-transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanningError
from .batch import Batch

MODE_COUNT = "count"
MODE_TIME = "time"
MODE_UNBOUNDED = "unbounded"
MODE_PARTITION = "partition"


@dataclass(frozen=True)
class WindowSpec:
    """Parsed window clause.

    ``count`` windows measure tuples; ``time`` windows measure units of a
    monotone timestamp column (``time_column``), producing ragged windows
    that close when the stream's time passes their end.
    """

    mode: str
    size: int = 0
    slide: int = 1
    partition_by: str = ""
    rows: int = 0
    time_column: str = ""

    def __post_init__(self) -> None:
        if self.mode not in (MODE_COUNT, MODE_TIME, MODE_UNBOUNDED, MODE_PARTITION):
            raise PlanningError(f"unknown window mode {self.mode!r}")
        if self.mode in (MODE_COUNT, MODE_TIME):
            if self.size <= 0:
                raise PlanningError(f"{self.mode} window needs a positive range")
            if self.slide <= 0:
                raise PlanningError(f"{self.mode} window needs a positive slide")
        if self.mode == MODE_TIME and not self.time_column:
            raise PlanningError("time window needs a timestamp column")
        if self.mode == MODE_PARTITION:
            if not self.partition_by:
                raise PlanningError("partition window needs a key column")
            if self.rows <= 0:
                raise PlanningError("partition window needs positive rows")

    @classmethod
    def count(cls, size: int, slide: int = 1) -> "WindowSpec":
        return cls(mode=MODE_COUNT, size=size, slide=slide)

    @classmethod
    def time(
        cls, size: int, slide: int, time_column: str = "timestamp"
    ) -> "WindowSpec":
        return cls(mode=MODE_TIME, size=size, slide=slide, time_column=time_column)

    @classmethod
    def unbounded(cls) -> "WindowSpec":
        return cls(mode=MODE_UNBOUNDED)

    @classmethod
    def partition(cls, key: str, rows: int) -> "WindowSpec":
        return cls(mode=MODE_PARTITION, partition_by=key, rows=rows)


class SlidingWindowBuffer:
    """Cross-batch count-window bookkeeping (the paper's batch buffer).

    Feed batches in arrival order; each call returns the merged working
    batch (buffered tail + new tuples) and the list of complete window
    extents ``(start, end)`` as offsets into that merged batch.  Incomplete
    trailing windows stay buffered for the next feed.
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_COUNT:
            raise PlanningError("SlidingWindowBuffer requires a count window")
        self.spec = spec
        self._pending: Optional[Batch] = None
        self._skip = 0  # tuples to drop before the next window start

    def feed(self, batch: Batch) -> Tuple[Batch, List[Tuple[int, int]]]:
        merged = Batch.concat([self._pending, batch]) if self._pending else batch
        size, slide = self.spec.size, self.spec.slide
        start = self._skip
        windows: List[Tuple[int, int]] = []
        while start + size <= merged.n:
            windows.append((start, start + size))
            start += slide
        if start >= merged.n:
            self._pending = None
            self._skip = start - merged.n
        else:
            self._pending = merged.slice(start, merged.n)
            self._skip = 0
        return merged, windows

    @property
    def buffered(self) -> int:
        """Tuples currently held for cross-batch windows."""
        return self._pending.n if self._pending is not None else 0


@dataclass(frozen=True)
class WindowLayout:
    """Window extents for one fed batch, in merged coordinates.

    ``carry`` tuples from the previous batch precede the new batch in the
    merged coordinate system (merged length = carry + n).  ``retain_start``
    is where the tail that must be buffered for the next batch begins; when
    it equals the merged length nothing is retained.
    """

    carry: int
    windows: Tuple[Tuple[int, int], ...]
    retain_start: int

    @property
    def crosses_batches(self) -> bool:
        return self.carry > 0


class WindowScheduler:
    """Counts-only cross-batch window bookkeeping.

    The executor pairs this with its own (decoded) tail buffers: windows of
    batches that need no carried tuples run *directly on compressed codes*;
    batches with cross-boundary windows fall back to buffered values, since
    code spaces of different batches (dictionary, base...) are not
    comparable.  The benchmark configurations size batches as whole numbers
    of windows, so the direct path dominates, matching the paper's setup of
    "each batch contains 100 windows".
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_COUNT:
            raise PlanningError("WindowScheduler requires a count window")
        self.spec = spec
        self._pending = 0
        self._skip = 0

    def feed(self, n: int) -> WindowLayout:
        if n < 0:
            raise PlanningError("cannot feed a negative number of tuples")
        carry = self._pending
        total = carry + n
        size, slide = self.spec.size, self.spec.slide
        start = self._skip
        windows: List[Tuple[int, int]] = []
        while start + size <= total:
            windows.append((start, start + size))
            start += slide
        if start >= total:
            self._pending = 0
            self._skip = start - total
            retain_start = total
        else:
            self._pending = total - start
            self._skip = 0
            retain_start = start
        return WindowLayout(
            carry=carry, windows=tuple(windows), retain_start=retain_start
        )

    @property
    def pending(self) -> int:
        return self._pending


class TimeWindowScheduler:
    """Cross-batch bookkeeping for time-based windows.

    Windows are aligned to the stream's first timestamp t0: window k spans
    ``[t0 + k*slide, t0 + k*slide + size)`` in timestamp units.  A window
    is emitted once the stream's time passes its end (in-order streams act
    as their own watermark); trailing windows still open at the end of a
    feed stay pending.  Feeding returns extents as *index* ranges into the
    merged (carried tail + new) coordinate system, so the executor's value
    kernels stay identical to the count-window path, just with ragged
    window sizes.

    Timestamps must be non-decreasing; out-of-order input raises
    :class:`~repro.errors.PlanningError` (this engine models in-order
    streams, as the paper's datasets are).
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_TIME:
            raise PlanningError("TimeWindowScheduler requires a time window")
        self.spec = spec
        self._t0: Optional[int] = None
        self._next_window = 0     # index k of the next window to emit
        self._pending = 0         # carried tuples (tail of previous feed)
        self._last_ts: Optional[int] = None

    def _window_bounds(self, k: int) -> Tuple[int, int]:
        start = self._t0 + k * self.spec.slide
        return start, start + self.spec.size

    def feed(self, timestamps: np.ndarray) -> WindowLayout:
        ts = np.asarray(timestamps, dtype=np.int64)
        carry = self._pending
        n_new = ts.size - carry
        if n_new < 0:
            raise PlanningError("fed fewer timestamps than the carried tail")
        if ts.size and (np.diff(ts) < 0).any():
            raise PlanningError("time windows require non-decreasing timestamps")
        if self._last_ts is not None and ts.size > carry and ts[carry] < self._last_ts:
            raise PlanningError("time windows require non-decreasing timestamps")
        if ts.size:
            if self._t0 is None:
                self._t0 = int(ts[0])
            self._last_ts = int(ts[-1])
        windows: List[Tuple[int, int]] = []
        if ts.size == 0 or self._t0 is None:
            return WindowLayout(carry=carry, windows=(), retain_start=ts.size)
        stream_time = int(ts[-1])
        k = self._next_window
        while True:
            w_start, w_end = self._window_bounds(k)
            if stream_time < w_end:
                break  # still open: needs future tuples to close
            lo = int(np.searchsorted(ts, w_start, side="left"))
            hi = int(np.searchsorted(ts, w_end, side="left"))
            if hi > lo:
                windows.append((lo, hi))
            # empty windows (no tuples in span) emit nothing, like the
            # count path where windows always have tuples by construction
            k += 1
        self._next_window = k
        next_start, _ = self._window_bounds(k)
        retain_start = int(np.searchsorted(ts, next_start, side="left"))
        self._pending = ts.size - retain_start
        return WindowLayout(
            carry=carry, windows=tuple(windows), retain_start=retain_start
        )

    @property
    def pending(self) -> int:
        return self._pending


def expand_ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(first[q], first[q] + counts[q])`` over q."""
    offsets = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(offsets.size, dtype=np.int64)


class PartitionRows:
    """A partition state followed by pending rows, ordered by (key, arrival).

    ``order[k]`` is the row of ``columns`` (state rows, then pending rows)
    at sorted position k.  ``arrival[k]`` packs (key rank, 1 + index among
    the pending rows, 0 for a state row) into one ascending int64.
    """

    def __init__(self, columns: Dict[str, np.ndarray], key: str, n_state: int):
        self.columns = columns
        self.order = np.argsort(columns[key], kind="stable")
        self.keys = columns[key][self.order]
        change = np.ones(self.keys.size, dtype=bool)
        change[1:] = self.keys[1:] != self.keys[:-1]
        self.rank = np.cumsum(change) - 1
        self.span = self.keys.size + 2
        self.arrival = self.rank * self.span + np.maximum(self.order - n_state + 1, 0)

    def latest(
        self, keys: np.ndarray, ends: np.ndarray, depth: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(first, count): the last ``depth`` rows of ``keys[q]`` at pending
        positions before ``ends[q]`` are sorted rows ``first .. first+count-1``.
        """
        if not self.keys.size:
            none = np.zeros(keys.size, dtype=np.int64)
            return none, none
        start = np.searchsorted(self.keys, keys)
        at = np.minimum(start, self.keys.size - 1)
        stop = np.searchsorted(self.arrival, self.rank[at] * self.span + ends + 1)
        count = np.where(self.keys[at] == keys, np.minimum(stop - start, depth), 0)
        return stop - count, count


class PartitionWindowState:
    """Most-recent-K-rows-per-key state for ``[partition by c rows K]``.

    Columnar: ``keys`` ascending with at most K entries per key, and one
    array per column aligned with it, each key's rows oldest first.  A
    batch is absorbed in one pass: :meth:`merge` orders the state and the
    batch's rows behind it by (key, arrival) — the rows a probe reads —
    and :meth:`retain` keeps the last K of each key as the next state.
    """

    def __init__(self, spec: WindowSpec):
        if spec.mode != MODE_PARTITION:
            raise PlanningError("PartitionWindowState requires a partition window")
        self.spec = spec
        self.keys = np.zeros(0, dtype=np.int64)
        self.columns: Dict[str, np.ndarray] = {}

    def merge(self, pending: Dict[str, np.ndarray]) -> PartitionRows:
        """The retained rows followed by ``pending`` (arrival order)."""
        n_state = self.keys.size
        columns = {
            name: np.concatenate([self.columns[name], arr]) if n_state else arr
            for name, arr in pending.items()
        }
        return PartitionRows(columns, self.spec.partition_by, n_state)

    def retain(self, rows: PartitionRows) -> None:
        """Keep the last ``rows`` tuples per key of ``rows`` as the state."""
        depth = self.spec.rows
        # a row stays unless its key recurs ``depth`` sorted rows later
        keep = np.ones(rows.keys.size, dtype=bool)
        keep[:-depth] = rows.keys[depth:] != rows.keys[:-depth]
        self.keys = rows.keys[keep]
        kept = rows.order[keep]
        self.columns = {name: arr[kept] for name, arr in rows.columns.items()}

    def update(self, batch: Batch) -> None:
        """Absorb a batch, retaining the latest ``rows`` tuples per key."""
        pending = {name: batch.column(name) for name in batch.schema.names}
        self.retain(self.merge(pending))

    def lookup(self, keys: np.ndarray) -> Dict[str, np.ndarray]:
        """Retained rows of the given keys, key by key, oldest first.

        Keys with no state are skipped (no tuple has arrived for them yet).
        """
        first = np.searchsorted(self.keys, keys, side="left")
        counts = np.searchsorted(self.keys, keys, side="right") - first
        if not counts.any():
            return {}
        taken = expand_ranges(first, counts)
        return {name: arr[taken] for name, arr in self.columns.items()}

    def __len__(self) -> int:
        return int(np.unique(self.keys).size)
