"""Streaming SQL: lexer, parser, binder/lowering and executors (Table III dialect)."""

from .ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Comparison,
    DerivedStream,
    JoinClause,
    Literal,
    OrderItem,
    Query,
    Script,
    SelectItem,
    SourceRef,
)
from .executor import (
    JoinExecutor,
    PassthroughExecutor,
    QueryResult,
    WindowAggExecutor,
    make_executor,
)
from .lexer import Token, tokenize
from .parser import parse, parse_query
from .unparse import to_sql
from .plan import (
    HavingPredicate,
    JoinPlan,
    JoinSide,
    LiteralPredicate,
    OrderKey,
    OutputColumn,
    PassthroughPlan,
    Plan,
    WindowAggPlan,
)
from .planner import Planner, plan_query

__all__ = [
    "AggregateCall",
    "BinaryOp",
    "ColumnRef",
    "Comparison",
    "DerivedStream",
    "JoinClause",
    "Literal",
    "OrderItem",
    "Query",
    "Script",
    "SelectItem",
    "SourceRef",
    "JoinExecutor",
    "PassthroughExecutor",
    "QueryResult",
    "WindowAggExecutor",
    "make_executor",
    "Token",
    "tokenize",
    "parse",
    "parse_query",
    "to_sql",
    "HavingPredicate",
    "JoinPlan",
    "JoinSide",
    "LiteralPredicate",
    "OrderKey",
    "OutputColumn",
    "PassthroughPlan",
    "Plan",
    "Planner",
    "WindowAggPlan",
    "plan_query",
]
