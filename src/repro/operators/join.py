"""Stream joins: the window-to-partition-window equi-join of Q3.

Q3 joins a sliding window ``A`` of a stream with a per-vehicle
"latest row" partition window ``L`` of the same stream:

    select distinct L.* from SegSpeedStr [range 30 slide 1] as A,
    SegSpeedStr [partition by vehicle rows 1] as L
    where A.vehicle == L.vehicle

Semantically: for every vehicle observed in the recent window, emit its
latest known tuple.  The kernel runs once per batch: every distinct
(window, probe) pair looks up the latest partition rows before its
window's end with one sorted search over the state and the batch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..stream.window import PartitionRows, expand_ranges


def semi_join_latest(
    parts: Sequence[PartitionRows],
    probes: Sequence[np.ndarray],
    ends: np.ndarray,
    depths: Sequence[int],
    outer: Sequence[bool],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Join each probe with the latest partition rows of every side.

    Probe q asks side i for the last ``depths[i]`` rows of key
    ``probes[i][q]`` at pending positions before ``ends[q]``.  An inner
    side with no such row drops the probe; an outer side contributes a
    miss.  Returns the probe of each output row and, per side, the row of
    ``parts[i].columns`` it joins (-1 for a miss), a probe's rows oldest
    first.  Only a lone side may keep more than one row per key.
    """
    found = [
        part.latest(keys, ends, depth)
        for part, keys, depth in zip(parts, probes, depths)
    ]
    per_probe = np.ones(ends.size, dtype=np.int64)
    for (_, count), is_outer in zip(found, outer):
        per_probe *= np.maximum(count, 1) if is_outer else count
    probe_of = np.repeat(np.arange(ends.size, dtype=np.int64), per_probe)
    within = expand_ranges(np.zeros_like(per_probe), per_probe)
    rows = []
    for part, (first, count) in zip(parts, found):
        row = np.full(probe_of.size, -1, dtype=np.int64)
        hit = count[probe_of] > 0
        row[hit] = part.order[first[probe_of][hit] + within[hit]]
        rows.append(row)
    return probe_of, rows
