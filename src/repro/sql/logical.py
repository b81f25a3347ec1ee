"""The logical-plan IR: what the binder emits and the rules rewrite.

The plan path runs in one direction::

    parse -> bind(catalogue) -> logical IR -> RULES -> lower -> Plan

The binder (:meth:`~.planner.Planner.bind`) resolves every name and type
of a parsed script exactly once and emits a small tree of frozen nodes —
scan, filter, project, window-aggregate, join, order/limit, derive.  The
nodes carry everything downstream stages need: the resolved output
columns, HAVING/ORDER keys and join sides that :func:`~.planner.lower`
assembles into the physical :class:`~.plan.Plan`, the per-column
:class:`ColumnUse` requirements, and the catalogue knowledge (codec
hints, statistics) the cost model prices rewrites with.  The optimizer's
rules rewrite this tree; lowering the tree the binder emitted, with zero
rules applied, *is* the unoptimized plan.

Nodes are frozen dataclasses: every rewrite builds a new tree via
:func:`dataclasses.replace`, so a rule can never corrupt the plan it was
given.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..core.query_profile import ColumnUse
from ..stats import ColumnStats
from ..stream.schema import Schema
from ..stream.window import WindowSpec
from .plan import HavingNode, JoinSide, OutputColumn, PredicateNode


@dataclass(frozen=True)
class ColumnInfo:
    """Catalogue knowledge about one stream column.

    ``codec_hint`` is set when the engine pins a codec (``static:<name>``
    modes); the statistics fields are populated only when the caller can
    sample the stream (``has_stats``), e.g. the differential oracle binds
    them from the case's batches and ``repro explain --stats`` from a
    seeded sample.  Rules that need statistics to win must refuse to fire
    without them.
    """

    name: str
    kind: str = "int"
    size_c: int = 8
    codec_hint: str = ""
    has_stats: bool = False
    avg_run_length: float = 0.0
    distinct: int = 0
    min_value: int = 0
    max_value: int = 0


def schema_infos(
    schema: Schema,
    codec_hint: str = "",
    stats: Optional[Mapping[str, ColumnStats]] = None,
) -> Dict[str, ColumnInfo]:
    """Per-column catalogue info from a schema plus optional statistics."""
    infos: Dict[str, ColumnInfo] = {}
    for f in schema:
        st = stats.get(f.name) if stats else None
        if st is not None:
            infos[f.name] = ColumnInfo(
                name=f.name,
                kind=f.kind,
                size_c=f.size,
                codec_hint=codec_hint,
                has_stats=True,
                avg_run_length=float(st.avg_run_length),
                distinct=int(st.kindnum),
                min_value=int(st.min_value),
                max_value=int(st.max_value),
            )
        else:
            infos[f.name] = ColumnInfo(
                name=f.name, kind=f.kind, size_c=f.size, codec_hint=codec_hint
            )
    return infos


class LogicalNode:
    """Base class of the logical plan nodes (all frozen dataclasses).

    Every operator of the dialect has at most one input, held in a field
    named ``child`` — a plan is a chain from the root down to one scan.
    """


@dataclass(frozen=True)
class ScanNode(LogicalNode):
    """Read a stream; optionally filter and project inside the scan.

    ``columns`` is what the scan emits (projection pruning shrinks it);
    ``predicate`` is a filter evaluated on the compressed representation
    before rows leave the scan (predicate pushdown moves it here).
    """

    stream: str
    columns: Tuple[str, ...]
    infos: Tuple[ColumnInfo, ...]
    #: the stream's full schema, as it arrives on the wire
    schema: Optional[Schema] = None
    #: how the query touches each column it references — the capability
    #: requirements the server and the codec selector serve columns by
    uses: Tuple[ColumnUse, ...] = ()
    predicate: Optional[PredicateNode] = None

    @property
    def referenced(self) -> Tuple[str, ...]:
        """Columns the query touches (the prune rule shrinks ``columns``
        to this)."""
        return tuple(sorted(use.name for use in self.uses))

    def info_of(self, name: str) -> Optional[ColumnInfo]:
        for info in self.infos:
            if info.name == name:
                return info
        return None


@dataclass(frozen=True)
class MorphNode(LogicalNode):
    """Recompress one column of the child's output into another format.

    Mid-pipeline format morphing (MorphStore's holistic processing
    model): the column still *arrives* in its wire format — the morph is
    a server-side representation change before the downstream operator
    reads it, e.g. RLE runs re-encoded as bitmap planes ahead of an
    equality-heavy predicate.  The morph rule inserts this node above a
    scan and rewrites the scanned column's ``codec_hint`` to
    ``to_codec`` so the coster prices the downstream plan on the new
    layout; this node itself prices the one-off conversion.
    """

    child: LogicalNode
    column: str
    from_codec: str
    to_codec: str


@dataclass(frozen=True)
class FilterNode(LogicalNode):
    """Row filter above its child (the naive position of WHERE)."""

    child: LogicalNode
    predicate: PredicateNode


@dataclass(frozen=True)
class WindowAggNode(LogicalNode):
    """Count/time-window aggregation with optional grouping.

    ``aggregates`` holds ``(func, source_column)`` pairs (``"*"`` for
    ``count(*)``); ``fuse_column`` is set by the filter+aggregate fusion
    rule: the upstream predicate is evaluated at run granularity on that
    column and the column stays run-structured through aggregation.
    """

    child: LogicalNode
    window: WindowSpec
    group_keys: Tuple[str, ...]
    aggregates: Tuple[Tuple[str, str], ...]
    fuse_column: str = ""
    #: aggregates computed only to evaluate HAVING/ORDER BY
    hidden: Tuple[OutputColumn, ...] = ()
    having: Optional[HavingNode] = None


@dataclass(frozen=True)
class ProjectNode(LogicalNode):
    """Shape the final output columns (optionally distinct)."""

    child: LogicalNode
    outputs: Tuple[str, ...]
    distinct: bool = False
    #: the resolved definition of each name in ``outputs``
    columns: Tuple[OutputColumn, ...] = ()


@dataclass(frozen=True)
class OrderLimitNode(LogicalNode):
    """Per-window ORDER BY keys plus the optional LIMIT row cap."""

    child: LogicalNode
    keys: Tuple[Tuple[str, bool], ...]  # (output name, descending)
    limit: Optional[int] = None


@dataclass(frozen=True)
class DeriveNode(LogicalNode):
    """A derived stream definition consumed by downstream window sources.

    ``consumers`` counts the window sources reading the derived stream;
    the common-subplan rule sets ``shared`` so the subplan is computed
    once per batch instead of once per consumer.
    """

    name: str
    child: LogicalNode
    consumers: int = 1
    shared: bool = False


@dataclass(frozen=True)
class JoinNode(LogicalNode):
    """Window x partition-state join (comma form and explicit form)."""

    child: LogicalNode
    window: WindowSpec
    sides: Tuple[JoinSide, ...]
    #: schema the join sides see (the derived stream's when one feeds it)
    schema: Optional[Schema] = None
    #: for each projected output, the index into ``sides`` it reads from
    output_sides: Tuple[int, ...] = ()


def transform(
    node: LogicalNode, fn: Callable[[LogicalNode], LogicalNode]
) -> LogicalNode:
    """Bottom-up rewrite: apply ``fn`` to every node, input first."""
    child = getattr(node, "child", None)
    if child is not None:
        rewritten = transform(child, fn)
        if rewritten is not child:
            node = dataclasses.replace(node, child=rewritten)
    return fn(node)


def iter_nodes(node: Optional[LogicalNode]) -> Iterator[LogicalNode]:
    """Root-to-scan traversal of a logical tree."""
    while node is not None:
        yield node
        node = getattr(node, "child", None)


def find_scan(node: LogicalNode) -> Optional[ScanNode]:
    """The (single) scan of a logical tree, or None."""
    for n in iter_nodes(node):
        if isinstance(n, ScanNode):
            return n
    return None
