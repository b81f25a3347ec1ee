"""Differential execution of one oracle case across independent paths.

Each case runs through four paths and the results must agree:

(a) **baseline** — every column stored with the identity codec and
    decompressed before querying: the uncompressed reference semantics;
(b) **decode**  — every column pinned to the codec under test, with
    ``force_decode=True``: decompress-then-query, checking the codec's
    roundtrip under real query access patterns;
(c) **direct**  — the same pinned codec with direct processing enabled:
    the paper's query-without-decompression path, checking the direct
    kernels (code-space predicates, affine aggregation, dedup on codes);
(d) **scalar-reference** — path (c) re-run with every batch kernel
    dispatched to its original scalar loop
    (:func:`repro.compression.kernels.scalar_reference_mode`), so the
    vectorized rewrite is differentially checked end-to-end against the
    per-value implementations it replaced;
(e) **optimized** — path (c) re-run on the plan produced by the
    rule-based optimizer (:mod:`repro.optimizer`), with the pinned codec
    as hint and column statistics bound from the case's own batches, so
    predicate pushdown, cascade reordering, run fusion and predicate
    simplification must all be answer-preserving on the generator's full
    widened grammar.

Columns where the pinned codec is not applicable (e.g. EG on negatives)
fall back to identity, exactly like the engine's selector fallback, and
are credited to identity — not the pinned codec — in the coverage matrix.

Results are compared after normalization: rows are canonicalized by a
lexicographic sort on rounded values (grouped output order may legally
differ between code space and value space), float columns compare within
tolerance, integer columns must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compression.kernels import scalar_reference_mode
from ..compression.registry import PAPER_POOL, get_codec
from ..core.profiler import CoverageMatrix
from ..core.server import Server
from ..errors import CodecNotApplicable, ReproError
from ..sql.ast import expr_columns
from ..sql.executor import QueryResult
from ..sql.plan import (
    OUT_AGG,
    OUT_COLUMN,
    OUT_EXPR,
    OUT_KEY,
    OUT_LAST,
    JoinPlan,
    LiteralPredicate,
    PassthroughPlan,
    Plan,
    WindowAggPlan,
)
from ..stats import ColumnStats
from ..stream.batch import Batch, CompressedBatch
from ..stream.window import MODE_TIME
from .generator import OracleCase

PATH_DECODE = "decode"
PATH_DIRECT = "direct"
PATH_SCALAR = "scalar-reference"
PATH_OPTIMIZED = "optimized"

#: mutation hook: (result, codec, path) -> result; used to self-test the
#: oracle (inject a comparator-visible fault and watch it get caught)
MutateHook = Callable[[QueryResult, str, str], QueryResult]


@dataclass(frozen=True)
class DifferentialConfig:
    codecs: Tuple[str, ...] = PAPER_POOL
    rtol: float = 1e-9
    atol: float = 1e-9
    mutate: Optional[MutateHook] = None
    #: also run the direct path on the *optimized* plan (leg e): the case
    #: is re-planned through :mod:`repro.optimizer` with the pinned codec
    #: as hint and statistics bound from the case's own batches, so every
    #: rewrite rule is held to bit-equality with the naive plan
    optimized_leg: bool = True


@dataclass
class Mismatch:
    """One divergence between a codec path and the baseline."""

    case_id: int
    codec: str
    path: str  # PATH_DECODE | PATH_DIRECT
    detail: str
    sql: str

    def __str__(self) -> str:
        return (
            f"case {self.case_id} codec {self.codec} [{self.path}]: "
            f"{self.detail}\n  sql: {self.sql}"
        )


@dataclass
class PathRun:
    """Merged result of one path plus per-batch materialization info."""

    result: QueryResult
    #: per batch: codec actually used per column (identity on fallback)
    choices: List[Dict[str, str]] = field(default_factory=list)
    #: per batch: referenced columns served directly (compressed codes)
    direct_columns: List[Tuple[str, ...]] = field(default_factory=list)


@dataclass
class CaseOutcome:
    case: OracleCase
    mismatches: List[Mismatch]
    coverage: CoverageMatrix

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ----- execution -------------------------------------------------------


def compress_case_batch(batch: Batch, codec_name: Optional[str]) -> CompressedBatch:
    """Compress every column with the pinned codec (identity fallback)."""
    identity = get_codec("identity")
    pinned = get_codec(codec_name) if codec_name else identity
    columns = {}
    for f in batch.schema:
        values = batch.column(f.name)
        stats = ColumnStats.from_values(values, size_c=f.size)
        codec = pinned if pinned.applicable(stats) else identity
        try:
            cc = codec.compress(values)
        except CodecNotApplicable:
            cc = identity.compress(values)
        cc.source_size_c = f.size
        columns[f.name] = cc
    return CompressedBatch(batch.schema, batch.n, columns)


def run_path(
    plan: Plan,
    batches: Sequence[Batch],
    codec_name: Optional[str],
    force_decode: bool,
) -> PathRun:
    """Run all batches through a fresh server on one compression path."""
    server = Server(plan, force_decode=force_decode)
    run = PathRun(result=QueryResult())
    results: List[QueryResult] = []
    for batch in batches:
        cb = compress_case_batch(batch, codec_name)
        report = server.process(cb)
        results.append(report.result)
        run.choices.append(dict(cb.choices))
        run.direct_columns.append(report.direct_columns)
    run.result = QueryResult.merge(results)
    return run


# ----- normalization + comparison -------------------------------------


def canonicalize(result: QueryResult) -> Dict[str, np.ndarray]:
    """Row-order canonicalization: lexicographic sort on rounded values."""
    names = sorted(result.columns)
    if not names or result.n_rows == 0:
        return {name: result.columns[name] for name in names}
    keys = []
    for name in reversed(names):  # lexsort: last key is primary
        col = result.columns[name]
        if np.issubdtype(col.dtype, np.floating):
            keys.append(np.round(col, 6))
        else:
            keys.append(col)
    order = np.lexsort(keys)
    return {name: result.columns[name][order] for name in names}


def compare_results(
    base: QueryResult,
    other: QueryResult,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> Optional[str]:
    """None when equivalent, else a human-readable divergence summary."""
    base_names = sorted(base.columns)
    other_names = sorted(other.columns)
    if base_names != other_names:
        return f"output columns differ: {base_names} vs {other_names}"
    if base.n_rows != other.n_rows:
        return f"row counts differ: {base.n_rows} vs {other.n_rows}"
    a = canonicalize(base)
    b = canonicalize(other)
    for name in base_names:
        col_a, col_b = a[name], b[name]
        is_float = np.issubdtype(col_a.dtype, np.floating) or np.issubdtype(
            col_b.dtype, np.floating
        )
        if is_float:
            # equal_nan: outer-join misses emit NaN on every path
            bad = ~np.isclose(col_a, col_b, rtol=rtol, atol=atol, equal_nan=True)
        else:
            bad = np.asarray(col_a) != np.asarray(col_b)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            return (
                f"column {name!r} differs at canonical row {i}: "
                f"{col_a[i]!r} vs {col_b[i]!r} "
                f"({int(bad.sum())} of {col_a.size} rows differ)"
            )
    return None


# ----- coverage --------------------------------------------------------


def column_operator_kinds(plan: Plan) -> Dict[str, Set[str]]:
    """Which operator kinds each referenced column feeds, from the plan."""
    kinds: Dict[str, Set[str]] = {name: set() for name in plan.profile.referenced}

    def mark(name: Optional[str], kind: str) -> None:
        if name is not None:
            kinds.setdefault(name, set()).add(kind)

    def mark_predicate(node) -> None:
        if node is None:
            return
        if isinstance(node, LiteralPredicate):
            mark(node.column, "selection")
        else:
            for child in node.children:
                mark_predicate(child)

    if isinstance(plan, WindowAggPlan):
        mark_predicate(plan.where)
        for key in plan.group_keys:
            mark(key, "groupby")
        for out in plan.outputs + plan.hidden_outputs:
            if out.kind == OUT_AGG:
                mark(out.source_column, "aggregation")
            elif out.kind in (OUT_KEY, OUT_LAST):
                mark(out.source_column, "projection")
        if plan.window.mode == MODE_TIME:
            mark(plan.window.time_column, "window")
    elif isinstance(plan, PassthroughPlan):
        mark_predicate(plan.where)
        for out in plan.outputs:
            if out.kind == OUT_COLUMN:
                mark(out.source_column, "projection")
                if plan.distinct:
                    mark(out.source_column, "distinct")
            elif out.kind == OUT_EXPR and out.expr is not None:
                for ref in expr_columns(out.expr):
                    mark(ref.name, "projection")
    elif isinstance(plan, JoinPlan):
        for side in plan.sides:
            mark(side.key_column, "join")
            mark(side.probe_column, "join")
        for out in plan.outputs:
            mark(out.source_column, "projection")
        if plan.window.mode == MODE_TIME:
            mark(plan.window.time_column, "window")
    else:  # pragma: no cover - plan taxonomy is closed
        raise ReproError(f"unknown plan type {type(plan).__name__}")
    return kinds


def record_coverage(
    matrix: CoverageMatrix, plan: Plan, run: PathRun
) -> None:
    """Credit the direct run's per-batch materialization to the matrix."""
    kinds = column_operator_kinds(plan)
    referenced = sorted(plan.profile.referenced)
    for choices, direct_cols in zip(run.choices, run.direct_columns):
        direct_set = set(direct_cols)
        for name in referenced:
            codec = choices.get(name)
            if codec is None:
                continue
            for kind in kinds.get(name, ()):
                matrix.record(codec, kind, direct=name in direct_set)


# ----- the three-way check ---------------------------------------------


def run_case(
    case: OracleCase, config: DifferentialConfig = DifferentialConfig()
) -> CaseOutcome:
    """Run one case through all three paths for every configured codec."""
    plan = case.plan()
    batches = case.to_batches()
    coverage = CoverageMatrix()
    mismatches: List[Mismatch] = []

    baseline = run_path(plan, batches, None, force_decode=True)

    # leg d (PATH_SCALAR) re-runs the direct path on scalar-reference kernels
    paths = [(PATH_DECODE, True), (PATH_DIRECT, False), (PATH_SCALAR, False)]
    if config.optimized_leg:
        paths.append((PATH_OPTIMIZED, False))
    for codec_name in config.codecs:
        for path, force_decode in paths:
            if path == PATH_SCALAR:
                with scalar_reference_mode():
                    run = run_path(plan, batches, codec_name, force_decode)
            elif path == PATH_OPTIMIZED:
                run = run_path(
                    case.optimized_plan(codec_hint=codec_name),
                    batches,
                    codec_name,
                    force_decode,
                )
            else:
                run = run_path(plan, batches, codec_name, force_decode)
            result = run.result
            if config.mutate is not None:
                result = config.mutate(result, codec_name, path)
            detail = compare_results(
                baseline.result, result, rtol=config.rtol, atol=config.atol
            )
            if detail is not None:
                mismatches.append(
                    Mismatch(
                        case_id=case.case_id,
                        codec=codec_name,
                        path=path,
                        detail=detail,
                        sql=case.sql,
                    )
                )
            if path == PATH_DIRECT:
                record_coverage(coverage, plan, run)
    return CaseOutcome(case=case, mismatches=mismatches, coverage=coverage)
