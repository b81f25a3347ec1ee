"""Query binder and lowering: parsed scripts in, physical plans out.

The front end runs in one direction::

    parse -> bind(catalogue) -> logical IR -> RULES -> lower -> Plan

:meth:`Planner.bind` resolves every stream, column, type and literal of a
script exactly once against the catalogue and emits the naive logical
tree (:mod:`.logical`) in SQL evaluation order; the tree carries the
per-column :class:`ColumnUse` requirements of DESIGN.md §2, which tell
both the cost model and the server which columns can be served directly
by which codecs.  :func:`lower` assembles a tree — rewritten by the
optimizer's rules or not — into one of the three plan shapes of
:mod:`.plan`.  :meth:`Planner.plan` is ``lower(bind(script))``: the
unoptimized plan is lowering with zero rules, not a second route.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..compression.base import CAP_AFFINE, CAP_EQUALITY, CAP_ORDER
from ..core.query_profile import ColumnUse, QueryProfile
from ..errors import PlanningError
from ..stats import ColumnStats
from ..stream.schema import KIND_FLOAT, KIND_INT, Field, Schema
from ..stream.window import (
    MODE_COUNT,
    MODE_PARTITION,
    MODE_TIME,
    MODE_UNBOUNDED,
    WindowSpec,
)
from .ast import (
    AggregateCall,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Query,
    Script,
    SelectItem,
    SourceRef,
    expr_columns,
)
from .logical import (
    DeriveNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    OrderLimitNode,
    ProjectNode,
    ScanNode,
    WindowAggNode,
    schema_infos,
)
from .parser import parse
from .plan import (
    OUT_AGG,
    OUT_COLUMN,
    OUT_EXPR,
    OUT_KEY,
    OUT_LAST,
    HavingPredicate,
    JoinPlan,
    JoinSide,
    LiteralPredicate,
    OptimizerInfo,
    OrderKey,
    OutputColumn,
    PassthroughPlan,
    Plan,
    PredicateGroup,
    PredicateNode,
    WindowAggPlan,
)

# ----- helpers ----------------------------------------------------------

_CAP_BY_AGG = {
    "avg": frozenset({CAP_AFFINE}),
    "sum": frozenset({CAP_AFFINE}),
    "max": frozenset({CAP_ORDER}),
    "min": frozenset({CAP_ORDER}),
    "count": frozenset(),
}

_CAP_BY_COMPARE = {
    "==": frozenset({CAP_EQUALITY}),
    "!=": frozenset({CAP_EQUALITY}),
    "<": frozenset({CAP_ORDER}),
    "<=": frozenset({CAP_ORDER}),
    ">": frozenset({CAP_ORDER}),
    ">=": frozenset({CAP_ORDER}),
}

#: the comparison ``literal <op> x`` reads ``x <flipped op> literal``
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

_SLIDING_MODES = (MODE_COUNT, MODE_TIME)


def _agg_output_field(func: str, src: Field, name: str) -> Field:
    if func == "count":
        return Field(name, KIND_INT, 8)
    if func == "avg":
        # averages of fixed-point ints are fractional
        return Field(
            name,
            KIND_FLOAT,
            8,
            decimals=max(src.decimals, 1) if src.kind == KIND_FLOAT else 1,
        )
    return Field(name, src.kind, src.size, decimals=src.decimals)


def _quantized_literal(value: Union[int, float], f: Field) -> int:
    """Map a query literal into the stored integer domain of a field."""
    if f.kind == KIND_FLOAT:
        scaled = value * f.scale
        rounded = int(round(scaled))
        if abs(scaled - rounded) > 1e-9:
            raise PlanningError(
                f"literal {value!r} is not representable with {f.decimals} "
                f"decimals of column {f.name!r}"
            )
        return rounded
    if isinstance(value, float) and not value.is_integer():
        raise PlanningError(
            f"fractional literal {value!r} on integer column {f.name!r}"
        )
    return int(value)


def _column_output(
    name: str, kind: str, f: Field, widen: bool = False
) -> OutputColumn:
    """An output that reads source column ``f`` (``widen``: as a float)."""
    return OutputColumn(
        name=name,
        kind=kind,
        source_column=f.name,
        out_field=(
            Field(name, KIND_FLOAT, 8, decimals=f.decimals)
            if widen
            else Field(name, f.kind, f.size, decimals=f.decimals)
        ),
        src_decimals=f.decimals,
    )


def _literal_on_right(comp: Comparison) -> Tuple[Expr, str, Expr]:
    """``(operand, op, literal)`` with a literal-first comparison flipped."""
    if isinstance(comp.left, Literal) and not isinstance(comp.right, Literal):
        return comp.right, _FLIP[comp.op], comp.left
    return comp.left, comp.op, comp.right


def _bind_condition(
    condition: Optional[BoolExpr], leaf: Callable[[Comparison], object]
):
    """Bind a WHERE/HAVING or-of-ands tree; ``leaf`` binds one comparison."""
    if condition is None:
        return None
    if isinstance(condition, BoolOp):
        return PredicateGroup(
            op=condition.op,
            children=tuple(
                _bind_condition(item, leaf) for item in condition.items
            ),
        )
    return leaf(condition)


def _no_order_limit(query: Query) -> None:
    if query.order_by or query.limit is not None:
        raise PlanningError(
            "order by / limit apply to windowed aggregation results"
        )


def _project(
    child: LogicalNode, outputs: List[OutputColumn], distinct: bool = False
) -> ProjectNode:
    return ProjectNode(
        child=child,
        outputs=tuple(o.name for o in outputs),
        distinct=distinct,
        columns=tuple(outputs),
    )


class _Scope:
    """Name resolution for one query block: the source stream's schema
    plus the per-column uses the block accumulates while it binds."""

    def __init__(self, stream: str, schema: Schema):
        self.stream = stream
        self.schema = schema
        self.uses: Dict[str, ColumnUse] = {}

    def field(self, name: str, context: str) -> Field:
        if name not in self.schema:
            raise PlanningError(
                f"{context}: unknown column {name!r} in {self.schema!r}"
            )
        return self.schema[name]

    def use(self, name: str, **how) -> None:
        new = ColumnUse(name, **how)
        old = self.uses.get(name)
        self.uses[name] = old.merge(new) if old is not None else new

    def time_window(self, window: WindowSpec, context: str) -> None:
        """A time window's column must be an integer field; the scheduler
        reads its values to assign tuples to windows."""
        if window.mode != MODE_TIME:
            return
        tc = window.time_column
        if self.field(tc, context).kind != KIND_INT:
            raise PlanningError(
                f"time window column {tc!r} must be an integer field"
            )
        self.use(tc, needs_values=True)

    def bind_where(self, condition: Optional[BoolExpr]) -> Optional[PredicateNode]:
        def leaf(comp: Comparison) -> LiteralPredicate:
            left, op, right = _literal_on_right(comp)
            if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
                raise PlanningError(
                    "where supports column-vs-literal predicates here; "
                    "column-vs-column equality belongs to the join form"
                )
            f = self.field(left.name, "where")
            self.use(left.name, caps=_CAP_BY_COMPARE[op])
            return LiteralPredicate(
                left.name, op, _quantized_literal(right.value, f)
            )

        return _bind_condition(condition, leaf)

    def aggregate(self, agg: AggregateCall, name: str) -> OutputColumn:
        src = Field(name, KIND_INT, 8)
        if agg.arg is not None:
            src = self.field(agg.arg.name, f"aggregate {agg.func}")
            self.use(agg.arg.name, caps=_CAP_BY_AGG[agg.func])
        return OutputColumn(
            name=name,
            kind=OUT_AGG,
            source_column=agg.arg.name if agg.arg else None,
            agg_func=agg.func,
            out_field=_agg_output_field(agg.func, src, name),
            src_decimals=src.decimals,
        )


# ----- binder ----------------------------------------------------------


class Planner:
    """Binds and plans scripts against a catalogue: stream schemas plus
    what is known about the columns behind them.

    ``codec_hint`` names a pinned codec (the engine's ``static:<name>``
    modes) and ``stats`` holds sampled per-column statistics of the
    scanned stream; both ride on the scan node so the optimizer's rules
    can price run/plane representations.  Neither affects :meth:`plan`.
    """

    def __init__(
        self,
        catalog: Dict[str, Schema],
        codec_hint: str = "",
        stats: Optional[Mapping[str, ColumnStats]] = None,
    ):
        self.catalog = dict(catalog)
        self.codec_hint = codec_hint
        self.stats = stats

    def plan_text(self, text: str) -> Plan:
        return self.plan(parse(text))

    def plan(self, script: Script) -> Plan:
        """The unoptimized physical plan: lowering with zero rules."""
        return lower(self.bind(script))

    def bind(self, script: Script) -> LogicalNode:
        """The naive logical tree of a script, in SQL evaluation order.

        Derived streams bind first and enter the catalogue under their
        name, so the main query resolves them like any other stream.
        """
        schemas = dict(self.catalog)
        main = script.main
        readers = [src.stream for src in main.sources]
        readers += [clause.source.stream for clause in main.joins]
        derived: Dict[str, DeriveNode] = {}
        for d in script.derived:
            inner = self._bind_passthrough(d.query, schemas)
            derived[d.name] = DeriveNode(
                name=d.name,
                child=inner,
                consumers=max(readers.count(d.name), 1),
            )
            schemas[d.name] = Schema([o.out_field for o in inner.columns])
        if main.joins or len(main.sources) == 2:
            return self._bind_join(main, schemas, derived)
        if len(main.sources) != 1:
            raise PlanningError("queries must read one or two sources")
        mode = main.sources[0].window.mode
        if mode == MODE_UNBOUNDED:
            if script.derived:
                raise PlanningError("derived streams must feed a windowed main query")
            return self._bind_passthrough(main, schemas)
        if mode not in _SLIDING_MODES:
            raise PlanningError(
                "single-source main query needs a count or time window"
            )
        if script.derived:
            raise PlanningError(
                "derived streams are only supported with the join form of Q3"
            )
        return self._bind_window_agg(main, schemas)

    # ----- per-shape binding --------------------------------------------

    def _scope(self, source: SourceRef, schemas: Dict[str, Schema]) -> _Scope:
        if source.stream not in schemas:
            raise PlanningError(f"unknown stream {source.stream!r}")
        return _Scope(source.stream, schemas[source.stream])

    def _scan(
        self, scope: _Scope, where: Optional[PredicateNode] = None
    ) -> LogicalNode:
        """The naive input of a block: a scan of every schema column with
        the WHERE filter sitting above it.  Called once the block is
        bound, so the scan carries the complete set of column uses."""
        infos = schema_infos(scope.schema, self.codec_hint, self.stats)
        node: LogicalNode = ScanNode(
            stream=scope.stream,
            columns=tuple(infos),
            infos=tuple(infos.values()),
            schema=scope.schema,
            uses=tuple(scope.uses.values()),
        )
        return node if where is None else FilterNode(child=node, predicate=where)

    def _bind_window_agg(
        self, query: Query, schemas: Dict[str, Schema]
    ) -> LogicalNode:
        source = query.sources[0]
        scope = self._scope(source, schemas)
        if query.distinct:
            raise PlanningError("distinct is not supported with window aggregation")
        scope.time_window(source.window, "time window")
        group_keys = tuple(ref.name for ref in query.group_by)
        for key in group_keys:
            scope.field(key, "group by")
            scope.use(key, caps=frozenset({CAP_EQUALITY}), positional=True)
        outputs = [
            self._bind_agg_item(item, scope, group_keys) for item in query.items
        ]
        if not group_keys and not any(o.kind == OUT_AGG for o in outputs):
            raise PlanningError(
                "a count-windowed query needs aggregates or group by; "
                "use [range unbounded] for per-tuple projection"
            )
        where = scope.bind_where(query.where)
        hidden: List[OutputColumn] = []

        def result_column(expr: Expr, hidden_name: str, clause: str) -> str:
            """The output (hidden if need be) a HAVING/ORDER BY operand names."""
            if isinstance(expr, AggregateCall):
                wanted = (expr.func, expr.arg.name if expr.arg else None)
                for o in outputs + hidden:
                    if o.kind == OUT_AGG and (o.agg_func, o.source_column) == wanted:
                        return o.name
                # no matching select item: compute a hidden aggregate
                hidden.append(scope.aggregate(expr, hidden_name))
                return hidden_name
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and any(o.name == expr.name for o in outputs)
            ):
                return expr.name
            raise PlanningError(
                f"{clause} supports aggregates or select-list names; got {expr!s}"
            )

        index = itertools.count()

        def having_leaf(comp: Comparison) -> HavingPredicate:
            left, op, right = _literal_on_right(comp)
            if not isinstance(right, Literal):
                raise PlanningError("having compares an aggregate to a literal")
            target = result_column(left, f"__having_{next(index)}", "having")
            return HavingPredicate(target, op, float(right.value))

        having = _bind_condition(query.having, having_leaf)
        if query.limit is not None and not query.order_by:
            raise PlanningError(
                "limit requires an order by clause (unordered truncation "
                "would be nondeterministic)"
            )
        keys = tuple(
            (result_column(item.expr, f"__order_{i}", "order by"), item.desc)
            for i, item in enumerate(query.order_by)
        )
        node: LogicalNode = WindowAggNode(
            child=self._scan(scope, where),
            window=source.window,
            group_keys=group_keys,
            aggregates=tuple(
                (o.agg_func or "", o.source_column or "*")
                for o in outputs + hidden
                if o.kind == OUT_AGG
            ),
            hidden=tuple(hidden),
            having=having,
        )
        node = _project(node, outputs)
        if keys or query.limit is not None:
            node = OrderLimitNode(child=node, keys=keys, limit=query.limit)
        return node

    def _bind_agg_item(
        self, item: SelectItem, scope: _Scope, group_keys: Tuple[str, ...]
    ) -> OutputColumn:
        expr = item.expr
        if isinstance(expr, AggregateCall):
            return scope.aggregate(expr, item.output_name)
        if isinstance(expr, ColumnRef):
            f = scope.field(expr.name, "select")
            scope.use(expr.name, positional=True)
            kind = OUT_KEY if expr.name in group_keys else OUT_LAST
            return _column_output(item.output_name, kind, f)
        raise PlanningError(
            "window aggregation supports plain columns and aggregates; "
            f"got expression {expr!s}"
        )

    def _bind_passthrough(
        self, query: Query, schemas: Dict[str, Schema]
    ) -> ProjectNode:
        source = query.sources[0]
        scope = self._scope(source, schemas)
        if source.window.mode != MODE_UNBOUNDED:
            raise PlanningError("passthrough queries use [range unbounded]")
        if query.group_by:
            raise PlanningError("group by requires a count window")
        if query.having is not None:
            raise PlanningError("having requires aggregation over a count window")
        if query.joins:
            raise PlanningError("join clauses require a windowed main query")
        _no_order_limit(query)
        outputs: List[OutputColumn] = []
        for item in query.items:
            expr = item.expr
            name = item.output_name
            if isinstance(expr, AggregateCall):
                raise PlanningError("aggregates require a count window")
            if isinstance(expr, ColumnRef):
                f = scope.field(expr.name, "select")
                if query.distinct:
                    # dedup runs on codes; only survivors are decoded
                    scope.use(
                        expr.name, caps=frozenset({CAP_EQUALITY}), positional=True
                    )
                else:
                    # every surviving row reaches the output (or the derived
                    # stream buffer), so the values themselves are needed
                    scope.use(expr.name, needs_values=True)
                outputs.append(_column_output(name, OUT_COLUMN, f))
                continue
            # arithmetic expression: needs values of every referenced column
            refs = expr_columns(expr)
            if not refs:
                raise PlanningError(f"constant select item {expr!s} is not supported")
            for ref in refs:
                if scope.field(ref.name, "select expression").kind != KIND_INT:
                    raise PlanningError(
                        f"arithmetic on float column {ref.name!r} is not supported; "
                        "aggregate it instead"
                    )
                scope.use(ref.name, needs_values=True)
            outputs.append(
                OutputColumn(
                    name=name,
                    kind=OUT_EXPR,
                    expr=expr,
                    out_field=Field(name, KIND_INT, 8),
                )
            )
        where = scope.bind_where(query.where)
        return _project(self._scan(scope, where), outputs, query.distinct)

    def _bind_join(
        self,
        query: Query,
        schemas: Dict[str, Schema],
        derived: Dict[str, DeriveNode],
    ) -> LogicalNode:
        """Bind both join forms: window ⋈ partition state(s) of one stream.

        The comma form (Q3) and the explicit ``[LEFT] JOIN ... ON`` form
        differ only in how they name their sides; outputs, column uses
        and the derived-stream wiring are shared.  Misses on a LEFT side
        emit the probe value for the key column and NaN for its other
        columns.
        """
        if query.having is not None or query.group_by:
            raise PlanningError("having/group by are not supported on joins")
        _no_order_limit(query)
        join = self._scope(query.sources[0], schemas)
        if query.joins:
            probe, sides = self._explicit_sides(query, join)
        else:
            probe, sides = self._comma_sides(query, join)

        by_binding = {side.binding: i for i, side in enumerate(sides)}
        outputs: List[OutputColumn] = []
        output_sides: List[int] = []
        for item in query.items:
            expr = item.expr
            if not isinstance(expr, ColumnRef):
                raise PlanningError("the join form selects plain columns only")
            if expr.table is None and len(sides) != 1:
                raise PlanningError(
                    "multi-way joins need side-qualified output columns; "
                    f"got {expr!s}"
                )
            if expr.table is not None and expr.table not in by_binding:
                raise PlanningError(
                    "the join form outputs columns of the partition sides; "
                    f"got {expr!s}"
                )
            side_idx = by_binding.get(expr.table, 0)
            side = sides[side_idx]
            f = join.field(expr.name, "select")
            # misses of a LEFT side fill with NaN, so the output widens
            widen = side.outer and expr.name != side.key_column
            outputs.append(
                _column_output(item.output_name, OUT_COLUMN, f, widen=widen)
            )
            output_sides.append(side_idx)
            join.use(expr.name, needs_values=True)
        for side in sides:
            join.use(side.probe_column, needs_values=True)
            join.use(side.key_column, needs_values=True)
        join.time_window(probe.window, "join time window")
        # a derived projection feeds the join its own scan (and uses);
        # without one the join runs on values of the referenced columns
        node = JoinNode(
            child=derived.get(probe.stream) or self._scan(join),
            window=probe.window,
            sides=tuple(sides),
            schema=join.schema,
            output_sides=tuple(output_sides),
        )
        return _project(node, outputs, query.distinct)

    def _comma_sides(
        self, query: Query, join: _Scope
    ) -> Tuple[SourceRef, List[JoinSide]]:
        first, second = query.sources
        if first.stream != second.stream:
            raise PlanningError("the join form requires two windows of one stream")
        if (
            first.window.mode in _SLIDING_MODES
            and second.window.mode == MODE_PARTITION
        ):
            probe, partition = first, second
        elif (
            first.window.mode == MODE_PARTITION
            and second.window.mode in _SLIDING_MODES
        ):
            probe, partition = second, first
        else:
            raise PlanningError(
                "the join form needs one count/time window and one partition window"
            )
        comp = query.where
        if not isinstance(comp, Comparison):
            raise PlanningError("the join form needs exactly one join predicate")
        if comp.op != "==" or not (
            isinstance(comp.left, ColumnRef) and isinstance(comp.right, ColumnRef)
        ):
            raise PlanningError("the join predicate must be column == column")
        tables = {comp.left.table, comp.right.table}
        if comp.left.name != comp.right.name or tables != {
            probe.binding,
            partition.binding,
        }:
            raise PlanningError(
                "the join predicate must equate the same column of both sides"
            )
        key = comp.left.name
        if key != partition.window.partition_by:
            raise PlanningError("the join key must be the partition-by column")
        join.field(key, "join key")
        return probe, [JoinSide(partition.binding, partition.window, key, key)]

    def _explicit_sides(
        self, query: Query, join: _Scope
    ) -> Tuple[SourceRef, List[JoinSide]]:
        """One count/time-windowed probe source joins one or more
        ``[partition by k rows 1]`` sides of the same stream; each ON
        predicate equates a probe-side column with the side's key."""
        if len(query.sources) != 1:
            raise PlanningError(
                "explicit join clauses take a single windowed FROM source"
            )
        if query.where is not None:
            raise PlanningError(
                "the explicit join form takes its predicates in ON clauses, "
                "not WHERE"
            )
        probe = query.sources[0]
        if probe.window.mode not in _SLIDING_MODES:
            raise PlanningError(
                "the probe side of a join needs a count or time window"
            )
        bindings = {probe.binding}
        sides: List[JoinSide] = []
        for clause in query.joins:
            src, comp = clause.source, clause.on
            if src.stream != probe.stream:
                raise PlanningError(
                    "join sides must window the same stream as the probe "
                    f"side; got {src.stream!r}"
                )
            if src.window.mode != MODE_PARTITION:
                raise PlanningError(
                    "join sides need a [partition by <key> rows 1] window"
                )
            if src.window.rows != 1:
                raise PlanningError(
                    "explicit join sides keep the latest row only "
                    "([partition by <key> rows 1])"
                )
            if src.binding in bindings:
                raise PlanningError(
                    f"duplicate source binding {src.binding!r} in join"
                )
            bindings.add(src.binding)
            if comp.op != "==" or not (
                isinstance(comp.left, ColumnRef) and isinstance(comp.right, ColumnRef)
            ):
                raise PlanningError("the ON predicate must be column == column")
            refs = {comp.left, comp.right}
            side_refs = [r for r in refs if r.table == src.binding]
            probe_refs = [
                r
                for r in refs
                if r.table in (None, probe.binding) and r not in side_refs
            ]
            if len(side_refs) != 1 or len(probe_refs) != 1:
                raise PlanningError(
                    "the ON predicate must equate a probe-side column with the "
                    f"joined side's key; got {comp.left!s} == {comp.right!s}"
                )
            key, probe_col = side_refs[0].name, probe_refs[0].name
            if key != src.window.partition_by:
                raise PlanningError(
                    f"the side of {src.binding!r} must join on its partition-by "
                    f"column {src.window.partition_by!r}; got {key!r}"
                )
            kf = join.field(key, "join key")
            pf = join.field(probe_col, "join probe")
            if (pf.kind, pf.decimals) != (kf.kind, kf.decimals):
                raise PlanningError(
                    f"join compares columns of mismatched types: "
                    f"{probe_col!r} vs {key!r}"
                )
            sides.append(
                JoinSide(src.binding, src.window, probe_col, key, clause.outer)
            )
        return probe, sides


# ----- lowering ---------------------------------------------------------


def _input(node: LogicalNode) -> Tuple[ScanNode, Optional[PredicateNode]]:
    """The scan under a block and the block's WHERE, wherever the rules
    left it: in a filter above the scan or pushed into the scan."""
    where = None
    while not isinstance(node, ScanNode):
        if isinstance(node, FilterNode):
            where = node.predicate
        node = node.child
    return node, node.predicate if where is None else where


def lower(root: LogicalNode, info: Optional[OptimizerInfo] = None) -> Plan:
    """Assemble the physical plan a logical tree describes.

    Lowering never changes what a plan computes: pushdown and pruning are
    already how the executor behaves (filters run first, the server only
    materializes referenced columns), so of everything the rules rewrite
    only the predicate tree, the fused aggregation column and the
    decision record ``info`` reach the plan.
    """
    order = root if isinstance(root, OrderLimitNode) else None
    project = root.child if isinstance(root, OrderLimitNode) else root
    if not isinstance(project, ProjectNode):
        raise PlanningError(f"cannot lower a {type(root).__name__} root")
    body = project.child
    if isinstance(body, JoinNode):
        derived = None
        if isinstance(body.child, DeriveNode):
            derived = lower(body.child.child)
            stream, schema, profile = derived.stream, derived.schema, derived.profile
        else:
            scan, _ = _input(body.child)
            stream, schema, profile = scan.stream, scan.schema, _profile(scan)
        return JoinPlan(
            stream=stream,
            schema=schema,
            derived=derived,
            join_schema=body.schema,
            window=body.window,
            outputs=project.columns,
            distinct=project.distinct,
            profile=profile,
            sides=body.sides,
            output_sides=body.output_sides,
            opt=info,
        )
    if isinstance(body, WindowAggNode):
        scan, where = _input(body.child)
        return WindowAggPlan(
            stream=scan.stream,
            schema=scan.schema,
            window=body.window,
            outputs=project.columns,
            group_keys=body.group_keys,
            where=where,
            profile=_profile(scan),
            hidden_outputs=body.hidden,
            having=body.having,
            order_by=tuple(OrderKey(*key) for key in order.keys) if order else (),
            limit=order.limit if order else None,
            fuse_column=body.fuse_column,
            opt=info,
        )
    scan, where = _input(body)
    return PassthroughPlan(
        stream=scan.stream,
        schema=scan.schema,
        outputs=project.columns,
        where=where,
        distinct=project.distinct,
        profile=_profile(scan),
        opt=info,
    )


def _profile(scan: ScanNode) -> QueryProfile:
    return QueryProfile(column_uses={use.name: use for use in scan.uses})


def plan_query(text: str, catalog: Dict[str, Schema]) -> Plan:
    """Parse and plan a streaming SQL script in one call (no rewrites;
    :func:`repro.optimizer.plan_for_engine` is the optimizing entry)."""
    return Planner(catalog).plan_text(text)
