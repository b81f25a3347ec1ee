"""Seeded workload generator: schemas, drifting data, random valid SQL.

Every case is derived from ``(campaign seed, case index)`` alone, so a
campaign is exactly reproducible and any case can be regenerated in
isolation.  Data is produced directly in the engine's *stored* integer
domain (float fields are fixed-point ints per the schema), which keeps
repro files byte-exact and sidesteps quantization round-off.

Queries are built as :mod:`repro.sql.ast` nodes and rendered through
:func:`repro.sql.unparse.to_sql`, so each case still exercises the full
lexer -> parser -> planner path.  Three shapes are generated, mirroring
the planner's plan taxonomy: windowed aggregation (count and time
windows, group-by, where, having with AND/OR, order by + limit),
unbounded passthrough (projection, arithmetic, distinct), and the joins:
both the legacy Q3 comma form and the explicit ``[LEFT] JOIN ... ON``
form with up to two partition sides and independent probe columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sql.ast import (
    AggregateCall,
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    JoinClause,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    SourceRef,
)
from ..optimizer.optimizer import plan_for_engine, stats_from_columns
from ..sql.plan import Plan
from ..sql.planner import Planner
from ..sql.unparse import to_sql
from ..stream.batch import Batch
from ..stream.schema import KIND_FLOAT, KIND_INT, Field, Schema
from ..stream.window import WindowSpec

STREAM = "FuzzStr"

_COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
_AGG_FUNCS = ("avg", "sum", "max", "min", "count")


@dataclass
class OracleCase:
    """One generated differential test case."""

    case_id: int
    seed: int
    schema: Schema
    query: Query
    #: per-batch stored-domain int64 columns (same keys as the schema)
    batches: List[Dict[str, np.ndarray]] = field(default_factory=list)
    stream: str = STREAM

    @property
    def sql(self) -> str:
        return to_sql(self.query)

    @property
    def catalog(self) -> Dict[str, Schema]:
        return {self.stream: self.schema}

    def plan(self) -> Plan:
        return Planner(self.catalog).plan(_as_script(self.query))

    def optimized_plan(self, codec_hint: str = "") -> Plan:
        """The plan after the rule-based optimizer, with statistics bound
        from this case's own batches (the richest context the rules can
        get: codec hint + real run lengths / ranges / cardinalities)."""
        merged = {
            f.name: np.concatenate([b[f.name] for b in self.batches])
            for f in self.schema
            if all(f.name in b for b in self.batches)
        } if self.batches else {}
        return plan_for_engine(
            self.catalog,
            _as_script(self.query),
            codec_hint=codec_hint,
            stats=stats_from_columns(self.schema, merged),
        ).plan

    def to_batches(self) -> List[Batch]:
        return [Batch(self.schema, columns) for columns in self.batches]

    @property
    def n_rows(self) -> int:
        return sum(
            int(next(iter(columns.values())).size) for columns in self.batches
        )

    def __repr__(self) -> str:
        return (
            f"OracleCase(id={self.case_id}, rows={self.n_rows}, "
            f"cols={len(self.schema)}, sql={self.sql!r})"
        )


def _as_script(query: Query):
    from ..sql.ast import Script

    return Script(derived=(), main=query)


# ----- drifting column regimes -----------------------------------------


class _Regime:
    """A per-column value distribution whose parameters drift per batch."""

    def __init__(self, rng: np.random.Generator, keylike: bool):
        self.keylike = keylike
        if keylike:
            # low-cardinality: good for group-by keys, DICT and Bitmap
            self.kind = rng.choice(["uniform", "runs", "binary"])
        else:
            self.kind = rng.choice(
                ["uniform", "runs", "walk", "constant", "wide"],
                p=[0.35, 0.2, 0.25, 0.1, 0.1],
            )
        # bias toward nonnegative domains so EG/ED stay applicable often
        negative_ok = not keylike and rng.random() < 0.3
        self.lo = int(rng.integers(-200, 0)) if negative_ok else int(
            rng.integers(0, 500)
        )
        self.span = int(rng.integers(1, 9)) if keylike else int(rng.integers(1, 5000))
        self.run_len = int(rng.integers(1, 9))
        self.step = int(rng.integers(1, 20))
        self.base = self.lo

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.base, dtype=np.int64)
        if self.kind == "binary":
            return rng.integers(0, 2, n).astype(np.int64)
        if self.kind == "uniform":
            return rng.integers(self.lo, self.lo + self.span + 1, n).astype(np.int64)
        if self.kind == "runs":
            n_runs = n // self.run_len + 1
            palette = np.arange(self.lo, self.lo + max(self.span, 2) + 1)
            values = rng.choice(palette, n_runs)
            return np.repeat(values, self.run_len)[:n].astype(np.int64)
        if self.kind == "walk":
            steps = rng.integers(-self.step, self.step + 1, n)
            out = self.base + np.cumsum(steps)
            self.base = int(out[-1])
            return out.astype(np.int64)
        # "wide": large magnitudes exercising NS widths and EG/ED limits
        return rng.integers(0, 1 << 34, n).astype(np.int64)

    def drift(self, rng: np.random.Generator) -> None:
        """Shift the distribution between batches (the adaptive trigger)."""
        roll = rng.random()
        if roll < 0.3:
            self.lo += int(rng.integers(-50, 200))
            self.base += int(rng.integers(-50, 200))
        elif roll < 0.5:
            self.span = max(1, int(self.span * rng.choice([0.5, 2, 4])))
        elif roll < 0.6:
            self.run_len = int(rng.integers(1, 12))


# ----- the generator ---------------------------------------------------


class WorkloadGenerator:
    """Derives a deterministic :class:`OracleCase` per (seed, index)."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def case(self, index: int) -> OracleCase:
        rng = np.random.default_rng([self.seed, int(index)])
        schema, keys, regimes = self._schema(rng)
        batches = self._batches(rng, schema, regimes)
        query = self._query(rng, schema, keys, batches)
        case = OracleCase(
            case_id=int(index),
            seed=self.seed,
            schema=schema,
            query=query,
            batches=batches,
        )
        case.plan()  # generator bug if this raises: every case must plan
        return case

    def cases(self, count: int):
        for index in range(count):
            yield self.case(index)

    # ----- schema + data ---------------------------------------------------

    def _schema(self, rng) -> Tuple[Schema, List[str], Dict[str, _Regime]]:
        fields = [Field("ts", KIND_INT, 8)]
        regimes: Dict[str, _Regime] = {}
        keys: List[str] = []
        n_keys = int(rng.integers(1, 3))
        for i in range(n_keys):
            name = f"k{i}"
            fields.append(Field(name, KIND_INT, int(rng.choice([4, 8]))))
            regimes[name] = _Regime(rng, keylike=True)
            keys.append(name)
        n_values = int(rng.integers(1, 3))
        for i in range(n_values):
            name = f"v{i}"
            if rng.random() < 0.35:
                fields.append(
                    Field(name, KIND_FLOAT, 8, decimals=int(rng.integers(1, 3)))
                )
            else:
                fields.append(Field(name, KIND_INT, int(rng.choice([4, 8]))))
            regimes[name] = _Regime(rng, keylike=False)
        return Schema(fields), keys, regimes

    def _batches(
        self, rng, schema: Schema, regimes: Dict[str, _Regime]
    ) -> List[Dict[str, np.ndarray]]:
        n_batches = int(rng.integers(1, 4))
        ts = int(rng.integers(0, 1000))
        batches: List[Dict[str, np.ndarray]] = []
        for b in range(n_batches):
            n = int(rng.integers(6, 40))
            columns: Dict[str, np.ndarray] = {}
            steps = rng.integers(0, 4, n)  # nondecreasing time for windows
            columns["ts"] = ts + np.cumsum(steps).astype(np.int64)
            ts = int(columns["ts"][-1])
            for name, regime in regimes.items():
                columns[name] = regime.sample(rng, n)
                if b + 1 < n_batches:
                    regime.drift(rng)
            batches.append(columns)
        return batches

    # ----- query shapes ----------------------------------------------------

    def _query(self, rng, schema, keys, batches) -> Query:
        roll = rng.random()
        if roll < 0.55:
            return self._window_agg(rng, schema, keys, batches)
        if roll < 0.85:
            return self._passthrough(rng, schema, batches)
        return self._join(rng, schema, keys, batches)

    def _window(self, rng, batches) -> WindowSpec:
        if rng.random() < 0.75:
            size = int(rng.integers(2, 13))
            roll = rng.random()
            if roll < 0.5:
                slide = size  # tumbling
            elif roll < 0.9:
                slide = int(rng.integers(1, size + 1))
            else:
                slide = size + int(rng.integers(1, 5))  # sampling window
            return WindowSpec.count(size, slide)
        span = max(int(batches[-1]["ts"][-1]) - int(batches[0]["ts"][0]), 4)
        size = int(rng.integers(2, max(span // 2, 3)))
        slide = int(rng.integers(1, size + 1))
        return WindowSpec.time(size, slide, "ts")

    def _window_agg(self, rng, schema: Schema, keys, batches) -> Query:
        window = self._window(rng, batches)
        group_keys = [k for k in keys if rng.random() < 0.5]
        items: List[SelectItem] = []
        out = 0
        for k in group_keys:
            if rng.random() < 0.8:
                items.append(SelectItem(ColumnRef(k)))
        aggregables = [f.name for f in schema]
        for _ in range(int(rng.integers(1, 3))):
            func = str(rng.choice(_AGG_FUNCS))
            if func == "count" and rng.random() < 0.5:
                call = AggregateCall("count", None)
            else:
                call = AggregateCall(func, ColumnRef(str(rng.choice(aggregables))))
            items.append(SelectItem(call, alias=f"o{out}"))
            out += 1
        if rng.random() < 0.25:  # an OUT_LAST / plain column output
            name = str(rng.choice([f.name for f in schema]))
            if all(
                not (isinstance(i.expr, ColumnRef) and i.expr.name == name)
                for i in items
            ):
                items.append(SelectItem(ColumnRef(name)))
        where = self._where(rng, schema, batches)
        having = self._having(rng, schema, items) if rng.random() < 0.3 else None
        order_by, limit = self._order_limit(rng, schema, items)
        return Query(
            items=tuple(items),
            sources=(SourceRef(STREAM, window),),
            where=where,
            group_by=tuple(ColumnRef(k) for k in group_keys),
            having=having,
            order_by=order_by,
            limit=limit,
        )

    def _order_limit(
        self, rng, schema: Schema, items: Sequence[SelectItem]
    ) -> Tuple[Tuple[OrderItem, ...], Optional[int]]:
        if rng.random() >= 0.3:
            return (), None
        candidates: List = [
            ColumnRef(i.output_name)
            for i in items
            if isinstance(i.expr, (ColumnRef, AggregateCall))
        ]
        # sometimes sort on an aggregate that is not in the select list
        candidates.append(AggregateCall("count", None))
        n_keys = int(rng.integers(1, min(len(candidates), 2) + 1))
        picks = rng.choice(len(candidates), size=n_keys, replace=False)
        order_by = tuple(
            OrderItem(candidates[int(p)], desc=bool(rng.random() < 0.5))
            for p in picks
        )
        limit = int(rng.integers(1, 5)) if rng.random() < 0.7 else None
        return order_by, limit

    def _passthrough(self, rng, schema: Schema, batches) -> Query:
        names = [f.name for f in schema]
        picked = [n for n in names if rng.random() < 0.6] or [names[0]]
        items = [SelectItem(ColumnRef(n)) for n in picked]
        distinct = rng.random() < 0.4
        if not distinct and rng.random() < 0.4:
            ints = [f.name for f in schema if f.kind == KIND_INT]
            if len(ints) >= 1:
                a = ColumnRef(str(rng.choice(ints)))
                op = str(rng.choice(["+", "-", "*", "/"]))
                k = int(rng.integers(2, 7))
                from ..sql.ast import BinaryOp

                items.append(SelectItem(BinaryOp(op, a, Literal(k)), alias="ex0"))
        where = self._where(rng, schema, batches)
        return Query(
            items=tuple(items),
            sources=(SourceRef(STREAM, WindowSpec.unbounded()),),
            where=where,
            distinct=distinct,
        )

    def _join(self, rng, schema: Schema, keys, batches) -> Query:
        if rng.random() < 0.5:
            return self._explicit_join(rng, schema, keys, batches)
        key = str(rng.choice(keys))
        window = WindowSpec.count(int(rng.integers(2, 10)), int(rng.integers(1, 6)))
        partition = WindowSpec.partition(key, int(rng.integers(1, 4)))
        names = [f.name for f in schema]
        picked = sorted({key} | {n for n in names if rng.random() < 0.5})
        items = tuple(SelectItem(ColumnRef(n, table="L")) for n in picked)
        return Query(
            items=items,
            sources=(
                SourceRef(STREAM, window, alias="A"),
                SourceRef(STREAM, partition, alias="L"),
            ),
            where=Comparison(
                "==", ColumnRef(key, table="A"), ColumnRef(key, table="L")
            ),
            distinct=True,
        )

    def _explicit_join(self, rng, schema: Schema, keys, batches) -> Query:
        """``[LEFT] JOIN ... ON`` form: 1-2 sides, independent probes."""
        window = WindowSpec.count(int(rng.integers(2, 10)), int(rng.integers(1, 6)))
        # probes must type-match the key (both plain ints in this schema)
        probe_pool = [
            f.name for f in schema if f.kind == KIND_INT and f.decimals == 0
        ]
        n_sides = int(rng.integers(1, 3))
        joins: List[JoinClause] = []
        items: List[SelectItem] = []
        names = [f.name for f in schema]
        out = 0
        for i in range(n_sides):
            key = str(rng.choice(keys))
            alias = f"L{i}"
            # probing a non-key column makes LEFT OUTER misses observable
            probe = key if rng.random() < 0.5 else str(rng.choice(probe_pool))
            joins.append(
                JoinClause(
                    source=SourceRef(
                        STREAM, WindowSpec.partition(key, 1), alias=alias
                    ),
                    on=Comparison(
                        "==",
                        ColumnRef(probe, table="A"),
                        ColumnRef(key, table=alias),
                    ),
                    outer=bool(rng.random() < 0.5),
                )
            )
            picked = sorted({key} | {n for n in names if rng.random() < 0.4})
            for n in picked:
                items.append(
                    SelectItem(ColumnRef(n, table=alias), alias=f"j{out}")
                )
                out += 1
        return Query(
            items=tuple(items),
            sources=(SourceRef(STREAM, window, alias="A"),),
            distinct=True,
            joins=tuple(joins),
        )

    # ----- predicates ------------------------------------------------------

    def _literal_for(self, rng, schema: Schema, batches, name: str) -> Literal:
        """A literal near the column's actual value distribution."""
        values = np.concatenate([b[name] for b in batches])
        pick = int(values[int(rng.integers(0, values.size))])
        pick += int(rng.integers(-2, 3))  # sometimes just off the data
        f = schema[name]
        if f.kind == KIND_FLOAT:
            # stay float-representable: |value * scale| must round-trip
            # within the planner's 1e-9 representability check
            pick = int(np.clip(pick, -4_000_000, 4_000_000))
            return Literal(pick / f.scale)
        return Literal(pick)

    def _comparison(self, rng, schema: Schema, batches) -> Comparison:
        name = str(rng.choice([f.name for f in schema]))
        op = str(rng.choice(_COMPARE_OPS))
        return Comparison(
            op, ColumnRef(name), self._literal_for(rng, schema, batches, name)
        )

    def _where(self, rng, schema: Schema, batches) -> Optional[BoolExpr]:
        roll = rng.random()
        if roll < 0.35:
            return None
        if roll < 0.65:
            return self._comparison(rng, schema, batches)
        terms = [self._comparison(rng, schema, batches) for _ in range(2)]
        if roll < 0.8:
            return BoolOp("and", tuple(terms))
        if roll < 0.92:
            return BoolOp("or", tuple(terms))
        # or-of-ands: (a and b) or c
        return BoolOp(
            "or",
            (BoolOp("and", tuple(terms)), self._comparison(rng, schema, batches)),
        )

    def _having_comparison(
        self, rng, items: Sequence[SelectItem]
    ) -> Comparison:
        aggs = [i for i in items if isinstance(i.expr, AggregateCall)]
        if not aggs or rng.random() < 0.3:
            # hidden aggregate: not in the select list
            target = AggregateCall("count", None)
        else:
            target = aggs[int(rng.integers(0, len(aggs)))].expr
        op = str(rng.choice([">", ">=", "<", "<=", "!="]))
        return Comparison(op, target, Literal(int(rng.integers(0, 5))))

    def _having(
        self, rng, schema: Schema, items: Sequence[SelectItem]
    ) -> Optional[BoolExpr]:
        roll = rng.random()
        first = self._having_comparison(rng, items)
        if roll < 0.5:
            return first
        second = self._having_comparison(rng, items)
        if roll < 0.75:
            return BoolOp("and", (first, second))
        return BoolOp("or", (first, second))
