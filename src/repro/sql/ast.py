"""Abstract syntax tree for the streaming SQL dialect (Table III)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..stream.window import WindowSpec


@dataclass(frozen=True)
class ColumnRef:
    """``name`` or ``alias.name``."""

    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic: + - * / (integer semantics, / floors)."""

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class AggregateCall:
    """avg/sum/max/min/count over a column (count may omit the column)."""

    func: str
    arg: Optional[ColumnRef]

    def __str__(self) -> str:
        return f"{self.func}({self.arg if self.arg else '*'})"


Expr = Union[ColumnRef, Literal, BinaryOp, AggregateCall]


def expr_columns(expr: Expr) -> List[ColumnRef]:
    """Every column reference in an expression, left to right."""
    if isinstance(expr, ColumnRef):
        return [expr]
    if isinstance(expr, BinaryOp):
        return expr_columns(expr.left) + expr_columns(expr.right)
    if isinstance(expr, AggregateCall):
        return [expr.arg] if expr.arg else []
    return []


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, AggregateCall):
            arg = self.expr.arg.name if self.expr.arg else "all"
            return f"{self.expr.func}_{arg}"
        return str(self.expr)


@dataclass(frozen=True)
class Comparison:
    op: str  # ==, !=, <, <=, >, >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp:
    """AND/OR combination of conditions (standard precedence: AND binds
    tighter than OR)."""

    op: str  # "and" | "or"
    items: Tuple["BoolExpr", ...]

    def __post_init__(self) -> None:
        assert self.op in ("and", "or")
        assert len(self.items) >= 2


BoolExpr = Union[Comparison, BoolOp]


@dataclass(frozen=True)
class SourceRef:
    """A windowed stream reference in FROM."""

    stream: str
    window: WindowSpec
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.stream


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` key: an expression plus sort direction."""

    expr: Expr
    desc: bool = False


@dataclass(frozen=True)
class JoinClause:
    """``[LEFT [OUTER]] JOIN source ON comparison`` after the FROM list."""

    source: SourceRef
    on: Comparison
    outer: bool = False


@dataclass(frozen=True)
class Query:
    items: Tuple[SelectItem, ...]
    sources: Tuple[SourceRef, ...]
    where: Optional["BoolExpr"] = None
    group_by: Tuple[ColumnRef, ...] = ()
    #: HAVING in the same or-of-ands shape as WHERE (None = absent)
    having: Optional["BoolExpr"] = None
    distinct: bool = False
    joins: Tuple[JoinClause, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


@dataclass(frozen=True)
class DerivedStream:
    """Q3's prefix form: ``( query ) as Name`` defining a derived stream."""

    name: str
    query: Query


@dataclass(frozen=True)
class Script:
    """Zero or more derived-stream definitions followed by the main query."""

    derived: Tuple[DerivedStream, ...]
    main: Query
