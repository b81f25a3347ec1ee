"""The CompressStreamDB client: selects codecs and compresses batches.

The client preloads the next few batches (the pipeline peeks ahead in the
source, matching "scans the next five batches" of Sec. IV-B), re-selects
codecs every ``redecide_every`` batches through its selector, and
compresses each column with its chosen codec.  If a chosen codec turns out
inapplicable to the actual data of a batch (e.g. Elias codes meeting a
negative value), the client falls back to identity for that column — the
stream must never stall.

Graceful degradation: a codec that keeps failing on live data (raising
:class:`CodecError`/:class:`CodecNotApplicable` at compression time on
:data:`DEMOTE_AFTER` batches) is *demoted* — removed from the selector's pool
for that column for the rest of the run, with the incident recorded as a
:class:`CodecDemotion`.  The per-batch fallback is always identity, so a
single misbehaving codec degrades compression ratio, never correctness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..compression.base import Codec, CompressedColumn
from ..compression.registry import get_codec
from ..errors import CodecError, CodecNotApplicable
from ..stream.batch import Batch, CompressedBatch
from ..stream.schema import Schema
from .query_profile import QueryProfile
from .selector import SelectorBase, column_stats_from_batches

#: compression failures on live data before a codec is demoted from a
#: column's pool for the rest of the run
DEMOTE_AFTER = 3


@dataclass
class CompressionOutcome:
    """Result of compressing one batch on the client."""

    batch: CompressedBatch
    seconds: float
    reselected: bool
    choices: Dict[str, str]


@dataclass(frozen=True)
class CodecDemotion:
    """One codec removed from a column's pool after repeated failures."""

    batch_index: int
    column: str
    codec: str
    failures: int
    reason: str


class Client:
    """Compression side of the engine (Fig. 4, left)."""

    def __init__(
        self,
        schema: Schema,
        selector: SelectorBase,
        profile: QueryProfile,
        redecide_every: int = 16,
        lookahead: int = 5,
        hybrid_threshold: int = 0,
    ):
        if redecide_every <= 0:
            # lint: taxonomy-flow constructor precondition, programmer error not wire data
            raise ValueError("redecide_every must be positive")
        if lookahead <= 0:
            # lint: taxonomy-flow constructor precondition, programmer error not wire data
            raise ValueError("lookahead must be positive")
        if hybrid_threshold < 0:
            # lint: taxonomy-flow constructor precondition, programmer error not wire data
            raise ValueError("hybrid_threshold cannot be negative")
        self.schema = schema
        self.selector = selector
        self.profile = profile
        self.redecide_every = redecide_every
        self.lookahead = lookahead
        #: Sec. VI hybrid mode: batches at or below this size skip
        #: compression entirely (single-tuple / small-scale scenarios
        #: should not wait for batch-level compression to pay off)
        self.hybrid_threshold = hybrid_threshold
        self._choices: Optional[Dict[str, Codec]] = None
        self._batch_index = 0
        self._identity = get_codec("identity")
        #: per-column codec decision history, one entry per re-decision
        self.decision_log: List[Dict[str, str]] = []
        #: (column, codec) -> live-data compression failures so far
        self._failures: Dict[tuple, int] = {}
        #: column -> codec names banned from selection for that column
        self._demoted: Dict[str, Set[str]] = {}
        #: demotion incidents, in the order they happened
        self.demotions: List[CodecDemotion] = []
        #: codec names banned from *every* column while the serving layer
        #: holds this client in degraded mode (None = unrestricted)
        self._restricted: Optional[Set[str]] = None

    def compress_batch(
        self, batch: Batch, upcoming: Sequence[Batch] = ()
    ) -> CompressionOutcome:
        """Compress one batch; ``upcoming`` is the lookahead sample."""
        reselected = False
        if batch.n <= self.hybrid_threshold:
            # hybrid path: ship the batch uncompressed without waiting
            choices = dict.fromkeys(self.schema.names, self._identity)
        else:
            if self._choices is None or self._batch_index % self.redecide_every == 0:
                sample = [batch, *upcoming][: self.lookahead]
                stats = column_stats_from_batches(sample, self.schema)
                excluded = self._demoted
                if self._restricted:
                    excluded = {
                        f.name: self._restricted | self._demoted.get(f.name, set())
                        for f in self.schema
                    }
                self._choices = self.selector.select(
                    stats, self.profile, batch.n, excluded=excluded
                )
                self.decision_log.append(
                    {name: codec.name for name, codec in self._choices.items()}
                )
                reselected = True
            choices = self._choices
        self._batch_index += 1

        t0 = time.perf_counter()
        columns: Dict[str, CompressedColumn] = {}
        for f in self.schema:
            codec = choices[f.name]
            values = batch.column(f.name)
            try:
                cc = codec.compress(values)
            except (CodecNotApplicable, CodecError) as exc:
                self._record_failure(f.name, codec, exc)
                cc = self._identity.compress(values)
            cc.source_size_c = f.size
            if cc.codec == "identity":
                # identity ships the field at its declared wire width
                cc.nbytes = batch.n * f.size
            columns[f.name] = cc
        seconds = time.perf_counter() - t0
        compressed = CompressedBatch(schema=self.schema, n=batch.n, columns=columns)
        return CompressionOutcome(
            batch=compressed,
            seconds=seconds,
            reselected=reselected,
            choices=dict(compressed.choices),
        )

    def _record_failure(self, column: str, codec: Codec, exc: Exception) -> None:
        """Count a live-data compression failure; demote at the threshold.

        Until the threshold the codec stays selected (the failure may be a
        one-off regime blip); once demoted it is excluded from every later
        re-decision for this column and the current choice drops to
        identity immediately.
        """
        if codec.name == "identity":
            return
        key = (column, codec.name)
        self._failures[key] = self._failures.get(key, 0) + 1
        if self._failures[key] < DEMOTE_AFTER:
            return
        banned = self._demoted.setdefault(column, set())
        if codec.name in banned:
            return
        banned.add(codec.name)
        self.demotions.append(
            CodecDemotion(
                batch_index=self._batch_index - 1,
                column=column,
                codec=codec.name,
                failures=self._failures[key],
                reason=f"{type(exc).__name__}: {exc}",
            )
        )
        if self._choices is not None:
            self._choices[column] = self._identity

    def restrict_pool(self, allowed: Optional[Set[str]]) -> None:
        """Confine selection to ``allowed`` codec names on every column.

        The serving layer's graceful-degradation hook: a tripped circuit
        breaker restricts a tenant to cheap always-safe codecs, and a
        recovered breaker lifts the restriction with ``None``.  Permanent
        per-column demotions are unaffected and stay banned either way.
        The next batch re-selects immediately.
        """
        if allowed is None:
            self._restricted = None
        else:
            if "identity" not in allowed:
                raise ValueError("a restricted pool must keep identity available")
            from ..compression.registry import all_codec_names

            unknown = set(allowed) - set(all_codec_names())
            if unknown:
                raise ValueError(f"unknown codecs in restricted pool: {unknown}")
            self._restricted = set(all_codec_names()) - set(allowed)
        self._choices = None

    @property
    def demoted_codecs(self) -> Dict[str, Set[str]]:
        """Codecs banned per column after repeated live-data failures."""
        return {name: set(codecs) for name, codecs in self._demoted.items()}

    @property
    def current_choices(self) -> Dict[str, str]:
        if self._choices is None:
            return {}
        return {name: codec.name for name, codec in self._choices.items()}
