"""Stage profiler: per-stage time and byte accounting (the paper's server
profiler, Sec. VI).

All times are seconds: compression/decompression/query are wall-clock
measurements, transmission is the channel's virtual time (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "STAGE_WAIT",
    "STAGE_COMPRESS",
    "STAGE_TRANS",
    "STAGE_DECOMPRESS",
    "STAGE_QUERY",
    "STAGES",
    "BatchTiming",
    "Profiler",
    "OPERATOR_KINDS",
    "CoverageCell",
    "CoverageMatrix",
]

STAGE_WAIT = "wait"
STAGE_COMPRESS = "compress"
STAGE_TRANS = "trans"
STAGE_DECOMPRESS = "decompress"
STAGE_QUERY = "query"

STAGES = (STAGE_WAIT, STAGE_COMPRESS, STAGE_TRANS, STAGE_DECOMPRESS, STAGE_QUERY)


@dataclass
class BatchTiming:
    """Stage seconds of one batch."""

    wait: float = 0.0
    compress: float = 0.0
    trans: float = 0.0
    decompress: float = 0.0
    query: float = 0.0

    @property
    def total(self) -> float:
        return self.wait + self.compress + self.trans + self.decompress + self.query


@dataclass
class Profiler:
    """Accumulates stage seconds and volume counters over a run."""

    seconds: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )
    batches: int = 0
    tuples: int = 0
    bytes_sent: int = 0
    bytes_uncompressed: int = 0
    per_batch: List[BatchTiming] = field(default_factory=list)

    def record_batch(
        self,
        timing: BatchTiming,
        tuples: int,
        bytes_sent: int,
        bytes_uncompressed: int,
    ) -> None:
        for stage in STAGES:
            self.seconds[stage] += getattr(timing, stage)
        self.batches += 1
        self.tuples += tuples
        self.bytes_sent += bytes_sent
        self.bytes_uncompressed += bytes_uncompressed
        self.per_batch.append(timing)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> Dict[str, float]:
        """Fraction of total time per stage (empty run -> zeros)."""
        total = self.total_seconds
        if total <= 0:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.seconds[stage] / total for stage in STAGES}

    def merge(self, other: "Profiler") -> "Profiler":
        merged = Profiler()
        for stage in STAGES:
            merged.seconds[stage] = self.seconds[stage] + other.seconds[stage]
        merged.batches = self.batches + other.batches
        merged.tuples = self.tuples + other.tuples
        merged.bytes_sent = self.bytes_sent + other.bytes_sent
        merged.bytes_uncompressed = self.bytes_uncompressed + other.bytes_uncompressed
        merged.per_batch = self.per_batch + other.per_batch
        return merged


# ----- direct-path coverage -------------------------------------------------

#: Operator kinds a query column can feed (the oracle's coverage axes).
OPERATOR_KINDS = (
    "selection",
    "groupby",
    "aggregation",
    "projection",
    "distinct",
    "join",
    "window",
)


@dataclass
class CoverageCell:
    """How often one (codec, operator kind) pair executed on each path."""

    direct: int = 0
    decoded: int = 0

    @property
    def total(self) -> int:
        return self.direct + self.decoded


@dataclass
class CoverageMatrix:
    """Codec x operator-kind execution counts, split direct vs decoded.

    The differential oracle fills one of these per campaign from the
    server's per-batch ``direct_columns``/``decoded_columns`` reports; the
    ``direct`` counts prove which direct (on-compressed-codes) kernels a
    campaign actually exercised, while ``decoded`` counts cover the β = 1
    codecs that can never run direct.
    """

    cells: Dict[str, Dict[str, CoverageCell]] = field(default_factory=dict)

    def record(self, codec: str, kind: str, direct: bool, count: int = 1) -> None:
        cell = self.cells.setdefault(codec, {}).setdefault(kind, CoverageCell())
        if direct:
            cell.direct += count
        else:
            cell.decoded += count

    def kinds_for(self, codec: str, direct_only: bool = False) -> Tuple[str, ...]:
        """Operator kinds a codec was exercised under, in canonical order."""
        row = self.cells.get(codec, {})
        kinds = [
            kind
            for kind, cell in row.items()
            if (cell.direct if direct_only else cell.total) > 0
        ]
        return tuple(sorted(kinds, key=_kind_order))

    def undercovered(
        self, codecs: Sequence[str], min_kinds: int
    ) -> Dict[str, int]:
        """Codecs (of ``codecs``) hit by fewer than ``min_kinds`` kinds."""
        short = {}
        for codec in codecs:
            hit = len(self.kinds_for(codec))
            if hit < min_kinds:
                short[codec] = hit
        return short

    def merge(self, other: "CoverageMatrix") -> None:
        for codec, row in other.cells.items():
            for kind, cell in row.items():
                self.record(codec, kind, direct=True, count=cell.direct)
                self.record(codec, kind, direct=False, count=cell.decoded)

    def format_table(self) -> str:
        """Human-readable matrix: ``direct/decoded`` batch counts per cell."""
        codecs = sorted(self.cells)
        kinds = sorted(
            {kind for row in self.cells.values() for kind in row},
            key=_kind_order,
        )
        if not codecs or not kinds:
            return "(no coverage recorded)"
        width = max(12, *(len(k) + 2 for k in kinds))
        header = f"{'codec':10s}" + "".join(f"{k:>{width}s}" for k in kinds)
        lines = [header, "-" * len(header)]
        for codec in codecs:
            row = self.cells[codec]
            rendered = []
            for kind in kinds:
                cell = row.get(kind)
                if cell is None or cell.total == 0:
                    rendered.append(f"{'.':>{width}s}")
                else:
                    rendered.append(f"{f'{cell.direct}/{cell.decoded}':>{width}s}")
            lines.append(f"{codec:10s}" + "".join(rendered))
        lines.append(
            "(cells are direct/decoded column-batch counts; '.' = never hit)"
        )
        return "\n".join(lines)


def _kind_order(kind: str) -> Tuple[int, str]:
    try:
        return (OPERATOR_KINDS.index(kind), kind)
    except ValueError:
        return (len(OPERATOR_KINDS), kind)
