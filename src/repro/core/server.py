"""The CompressStreamDB server: query processing on compressed batches.

Per batch the server materializes each query-referenced column either
*directly* (compressed codes, when the codec serves every use of the
column — Sec. IV-B "query without decompression") or *decoded* (the β = 1
special case, or a query-forced decode).  Decode time is booked as
decompression, direct materialization as part of the query scan, matching
the byte-granularity read model of Eq. 8.

Two structural escapes narrow the β = 1 decode set:

* run-structured payloads (RLE) are handed to the executor as
  (value, length) pairs; operators work at run granularity and per-row
  expansion happens lazily, only if an operator indexes rows;
* plane payloads (Bitmap, PLWAH) serve equality-only predicate columns
  as a :class:`~repro.compression.base.PlaneView` — one unpacked plane
  per literal, never a per-row array.

Both are booked as direct columns: no decompression ran.  When the
optimizer's morph rule decided a column should be *recompressed* into a
different layout (run payload -> bit planes for an equality-heavy
predicate), the server converts it before serving; conversion cost is
booked as decompression and the column is reported as morphed.  Every
decode and morph goes through the server's
:class:`~repro.core.decode_cache.DecodeCache`, which counts them and
keeps nothing: a batch's decoded arrays die with the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..compression.base import CAP_EQUALITY, Codec, CompressedColumn
from ..compression.registry import get_codec
from ..core.query_profile import ColumnUse
from ..operators.base import ExecColumn, decoded_column
from ..sql.executor import QueryResult, make_executor
from ..sql.plan import Plan
from ..stream.batch import CompressedBatch
from .decode_cache import DecodeCache


@dataclass
class ServerReport:
    """Outcome of processing one compressed batch."""

    result: QueryResult
    decompress_seconds: float
    query_seconds: float
    decoded_columns: Tuple[str, ...]
    #: referenced columns served on compressed codes (the direct path);
    #: with ``decoded_columns`` and ``morphed_columns`` this partitions
    #: the referenced set
    direct_columns: Tuple[str, ...] = ()
    #: columns the optimizer's morph decisions recompressed into another
    #: layout before serving (mid-pipeline format morphing)
    morphed_columns: Tuple[str, ...] = ()
    #: optimizer decisions carried by the plan (empty when the plan never
    #: went through the optimizer, or the chooser fell back)
    optimizer_rules: Tuple[str, ...] = ()
    plan_digest: str = ""
    estimated_cost: float = 0.0
    baseline_cost: float = 0.0


class Server:
    """Query side of the engine (Fig. 4, right).

    ``force_decode=True`` disables direct processing entirely: every
    referenced column is decompressed before querying, the conventional
    decompress-then-query design the paper argues against.  The ablation
    benchmark uses it to isolate the benefit of querying without
    decompression from the benefit of transmitting fewer bytes.
    """

    def __init__(self, plan: Plan, force_decode: bool = False):
        self.plan = plan
        self.profile = plan.profile
        self.executor = make_executor(plan)
        self.force_decode = force_decode
        #: the serving layer swaps in one instance shared by its sessions
        self.cache = DecodeCache()
        opt = plan.opt
        #: morph decisions by column, from the optimizer's FormatMorph rule
        self._morphs = {
            m.column: m for m in (opt.morphs if opt is not None else ())
        }

    def process(self, batch: CompressedBatch) -> ServerReport:
        decompress_seconds = 0.0
        decoded: list = []
        direct_cols: list = []
        morphed_cols: list = []
        columns: Dict[str, ExecColumn] = {}
        t_query = 0.0
        for name in sorted(self.profile.referenced):
            cc = batch.columns[name]
            codec = get_codec(cc.codec)
            use = self.profile.use_of(name)
            direct = (
                not self.force_decode
                and use is not None
                and use.served_directly_by(codec)
            )
            if direct:
                # direct path: widening the packed payload into the kernel
                # view is part of the byte-proportional scan (query time)
                t0 = time.perf_counter()
                columns[name] = ExecColumn(name, codec.direct_codes(cc), codec, cc)
                t_query += time.perf_counter() - t0
                direct_cols.append(name)
                continue
            if not self.force_decode and use is not None:
                # the morph check precedes the structural path: a run
                # payload would otherwise always serve as runs, and the
                # optimizer decided planes are cheaper for this use
                if name in self._morphs:
                    t0 = time.perf_counter()
                    served = self._morphed_column(name, codec, cc, use)
                    if served is not None:
                        # conversion decodes the source payload, so it is
                        # booked with decompression, not the query scan
                        decompress_seconds += time.perf_counter() - t0
                        columns[name] = served
                        morphed_cols.append(name)
                        continue
                t0 = time.perf_counter()
                served = self._structural_column(name, codec, cc, use)
                if served is not None:
                    t_query += time.perf_counter() - t0
                    columns[name] = served
                    direct_cols.append(name)
                    continue
            t0 = time.perf_counter()
            values = self.cache.decompress(codec, cc)
            decompress_seconds += time.perf_counter() - t0
            columns[name] = decoded_column(name, values)
            decoded.append(name)
        t0 = time.perf_counter()
        result = self.executor.execute(columns, batch.n)
        t_query += time.perf_counter() - t0
        opt = self.plan.opt
        return ServerReport(
            result=result,
            decompress_seconds=decompress_seconds,
            query_seconds=t_query,
            decoded_columns=tuple(decoded),
            direct_columns=tuple(direct_cols),
            morphed_columns=tuple(morphed_cols),
            optimizer_rules=opt.rules_fired if opt is not None else (),
            plan_digest=opt.plan_digest if opt is not None else "",
            estimated_cost=opt.estimated_cost if opt is not None else 0.0,
            baseline_cost=opt.baseline_cost if opt is not None else 0.0,
        )

    def _morphed_column(
        self, name: str, codec: Codec, cc: CompressedColumn, use: ColumnUse
    ) -> Optional[ExecColumn]:
        """Serve a column through its optimizer-decided morph, if safe.

        The plan's morph decision was priced for the equality-only plane
        path, so the runtime re-checks the same gate the structural plane
        path uses and verifies the batch actually arrived in the codec the
        decision assumed; any mismatch falls through to the naive paths.
        """
        decision = self._morphs[name]
        if cc.codec != decision.from_codec:
            return None
        if (
            use.caps <= frozenset({CAP_EQUALITY})
            and not use.needs_values
            and not use.positional
        ):
            target = get_codec(decision.to_codec)
            morphed = self.cache.morph(codec, cc, target)
            planes = target.plane_view(morphed)
            if planes is not None:
                return ExecColumn(name, planes=planes)
        return None

    def _structural_column(
        self, name: str, codec: Codec, cc: CompressedColumn, use: ColumnUse
    ) -> Optional[ExecColumn]:
        """Serve a β = 1 column from its compressed structure, if possible.

        Runs carry full decoded-value semantics, so they serve any use;
        planes answer only equality predicates, so they are gated to
        predicate-only columns (no value output, no row-wise indexing).
        """
        runs = codec.run_view(cc)
        if runs is not None:
            return ExecColumn(name, runs=runs)
        if (
            use.caps <= frozenset({CAP_EQUALITY})
            and not use.needs_values
            and not use.positional
        ):
            planes = codec.plane_view(cc)
            if planes is not None:
                return ExecColumn(name, planes=planes)
        return None
