"""Window semantics: count and time sliding windows, partition windows.

The dialect of Table III uses three window forms, plus time windows:

* ``[range N slide M]`` — count-based sliding window of N tuples advancing
  by M tuples (``[range N seconds slide M]`` measures a timestamp column
  instead);
* ``[range unbounded]`` — per-tuple pass-through (used by Q3's derived
  stream);
* ``[partition by col rows K]`` — the most recent K tuples per partition
  key (Q3's "latest position per vehicle").

Sliding windows may span batches.  The paper's *batch buffer* (Sec. VI)
is two pieces: a scheduler here (:class:`WindowScheduler` for count
windows, :class:`TimeWindowScheduler` for time windows) does the extent
arithmetic, and :class:`~repro.sql.executor.BatchBuffer` owns the decoded
tail of the previous batch, so cross-batch windows are computed without
re-transmission.  Extents are columns like any other: a
:class:`WindowLayout` carries ``starts`` and ``ends`` as int64 arrays that
every window kernel reads unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import PlanningError

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


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """Window extents for one fed batch, in merged coordinates.

    ``carry`` tuples from the previous batch precede the new batch in the
    merged coordinate system (merged length = carry + n).  Window w spans
    ``[starts[w], ends[w])``; both are non-decreasing int64 arrays.
    ``retain_start`` is where the tail that must be buffered for the next
    batch begins; when it equals the merged length nothing is retained.
    """

    carry: int
    starts: np.ndarray
    ends: np.ndarray
    retain_start: int


class WindowScheduler:
    """Counts-only cross-batch window bookkeeping.

    The batch buffer pairs this with the decoded tail: windows of
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
        # window k starts at skip + k*slide; emit every k whose end fits
        count = max((total - size - self._skip) // slide + 1, 0)
        starts = self._skip + slide * np.arange(count, dtype=np.int64)
        start = self._skip + slide * count  # first window still incomplete
        if start >= total:
            self._pending = 0
            self._skip = start - total
            retain_start = total
        else:
            self._pending = total - start
            self._skip = 0
            retain_start = start
        return WindowLayout(carry, starts, starts + size, retain_start)

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
        if ts.size == 0 or self._t0 is None:
            none = np.zeros(0, dtype=np.int64)
            return WindowLayout(carry, none, none, ts.size)
        t0, size, slide = self._t0, self.spec.size, self.spec.slide
        # windows k < k_end have closed: the stream's time reached their end
        k_end = max(self._next_window, (int(ts[-1]) - t0 - size) // slide + 1)
        # the tuple at rel = ts - t0 lies in windows ceil((rel - size + 1) /
        # slide) .. rel // slide; both bounds rise with rel, so each tuple
        # adds the windows past its predecessor's last one.  Their union
        # is every closed window holding a tuple: empty windows emit
        # nothing, like the count path where windows always have tuples
        rel = ts - t0
        last = np.minimum(rel // slide, k_end - 1)
        first = np.maximum(-((size - 1 - rel) // slide), self._next_window)
        first[1:] = np.maximum(first[1:], last[:-1] + 1)
        bounds = t0 + slide * expand_ranges(first, np.maximum(last - first + 1, 0))
        starts = np.searchsorted(ts, bounds, side="left")
        ends = np.searchsorted(ts, bounds + size, side="left")
        self._next_window = k_end
        retain_start = int(np.searchsorted(ts, t0 + k_end * slide, side="left"))
        self._pending = ts.size - retain_start
        return WindowLayout(carry, starts, ends, retain_start)

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

    def update(self, columns: Dict[str, np.ndarray]) -> None:
        """Absorb rows in arrival order, retaining the latest ``rows`` per key."""
        self.retain(self.merge(columns))

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
        # keys are sorted: the first key plus one per change
        changes = np.count_nonzero(self.keys[1:] != self.keys[:-1])
        return int(changes) + 1 if self.keys.size else 0
