"""Compression selectors: adaptive (the paper's), static, fixed-plan.

The adaptive selector is the heart of CompressStreamDB (Sec. IV-B): per
column, it prices every applicable codec with the system cost model on
statistics scanned from the next few batches, and picks the minimum total
time.  Identity ("no compression") is always in the pool, so the hybrid
uncompressed mode falls out naturally when compression cannot pay for
itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..compression.base import Codec
from ..compression.registry import default_pool, get_codec
from ..errors import CodecError
from ..stats import ColumnStats
from ..stream.batch import Batch
from ..stream.schema import Schema
from .cost_model import CostModel
from .query_profile import QueryProfile


#: values per column the selector's statistics read from the lookahead
MAX_SAMPLE = 65536


def column_stats_from_batches(
    batches: Sequence[Batch], schema: Schema
) -> Dict[str, ColumnStats]:
    """Per-column statistics over the trailing :data:`MAX_SAMPLE` values of
    the lookahead.

    The batches are read most-recent last, and the sample of each column is
    its last ``MAX_SAMPLE`` values across them — exactly
    ``np.concatenate(columns)[-MAX_SAMPLE:]`` — so a long lookahead cannot
    make re-decisions expensive.  Only that tail is copied: batches are
    walked from the end, and a tail inside one batch is a view of it.
    """
    if not batches:
        raise CodecError("need at least one batch to compute statistics")
    stats: Dict[str, ColumnStats] = {}
    for f in schema:
        tail: List[np.ndarray] = []
        need = MAX_SAMPLE
        for batch in reversed(batches):
            column = batch.column(f.name)
            tail.append(column[max(column.size - need, 0) :])
            need -= tail[-1].size
            if need == 0:
                break
        values = tail[0] if len(tail) == 1 else np.concatenate(tail[::-1])
        stats[f.name] = ColumnStats.from_values(values, size_c=f.size)
    return stats


class SelectorBase(ABC):
    """Maps column statistics to a per-column codec assignment.

    ``excluded`` maps column names to codec names the caller has demoted
    for that column (e.g. codecs that repeatedly failed on live data —
    the client's graceful-degradation path); selectors must never return
    an excluded codec for that column and fall back to identity when
    nothing else is applicable.
    """

    @abstractmethod
    def select(
        self,
        stats_by_column: Mapping[str, ColumnStats],
        profile: QueryProfile,
        size_b: int,
        excluded: Optional[Mapping[str, AbstractSet[str]]] = None,
    ) -> Dict[str, Codec]:
        """Choose one codec per column."""


class AdaptiveSelector(SelectorBase):
    """The paper's fine-grained cost-model-driven selector.

    ``switch_margin`` adds hysteresis: once a codec is chosen for a
    column, a challenger must beat it by more than this relative margin to
    replace it.  Estimates near a tie flip with sampling noise; hysteresis
    keeps decisions stable without giving up real wins.  The default 0
    is the paper's selector, and the one the engine builds.
    """

    def __init__(
        self,
        cost_model: CostModel,
        pool: Optional[Iterable[Codec]] = None,
        switch_margin: float = 0.0,
    ):
        if switch_margin < 0:
            raise CodecError("switch_margin cannot be negative")
        self.cost_model = cost_model
        self.pool: List[Codec] = list(pool) if pool is not None else default_pool()
        if not self.pool:
            raise CodecError("the selector pool cannot be empty")
        self.switch_margin = switch_margin
        self._previous: Dict[str, str] = {}

    def select(
        self,
        stats_by_column: Mapping[str, ColumnStats],
        profile: QueryProfile,
        size_b: int,
        excluded: Optional[Mapping[str, AbstractSet[str]]] = None,
    ) -> Dict[str, Codec]:
        referenced_bytes = sum(
            stats.size_c
            for name, stats in stats_by_column.items()
            if name in profile.referenced
        )
        choices: Dict[str, Codec] = {}
        for name, stats in stats_by_column.items():
            use = profile.use_of(name)
            banned = excluded.get(name, frozenset()) if excluded else frozenset()
            best: Optional[Codec] = None
            best_cost = float("inf")
            incumbent_cost: Optional[float] = None
            incumbent_name = self._previous.get(name)
            if incumbent_name in banned:
                incumbent_name = None
            for codec in self.pool:
                if codec.name in banned and codec.name != "identity":
                    continue
                if not codec.applicable(stats):
                    continue
                est = self.cost_model.estimate_column(
                    codec, stats, size_b, use, profile, referenced_bytes
                )
                if codec.name == incumbent_name:
                    incumbent_cost = est.total
                if est.total < best_cost:
                    best, best_cost = codec, est.total
            if best is None:
                best = get_codec("identity")
            elif (
                incumbent_cost is not None
                and best.name != incumbent_name
                and best_cost >= incumbent_cost / (1.0 + self.switch_margin)
            ):
                best = get_codec(incumbent_name)
            choices[name] = best
            self._previous[name] = best.name
        return choices


class StaticSelector(SelectorBase):
    """One fixed codec for every column (the Fig. 7 "Static" comparator and
    the single-codec columns of Figs. 5/6; ``identity`` is the baseline)."""

    def __init__(self, codec_name: str):
        self.codec = get_codec(codec_name)
        self._identity = get_codec("identity")

    def select(
        self,
        stats_by_column: Mapping[str, ColumnStats],
        profile: QueryProfile,
        size_b: int,
        excluded: Optional[Mapping[str, AbstractSet[str]]] = None,
    ) -> Dict[str, Codec]:
        choices: Dict[str, Codec] = {}
        for name, stats in stats_by_column.items():
            banned = excluded.get(name, frozenset()) if excluded else frozenset()
            usable = (
                self.codec.name not in banned and self.codec.applicable(stats)
            )
            choices[name] = self.codec if usable else self._identity
        return choices


class FixedPlanSelector(SelectorBase):
    """An explicit per-column codec mapping (for experiments and tests)."""

    def __init__(self, mapping: Mapping[str, str], default: str = "identity"):
        self.mapping = {name: get_codec(codec) for name, codec in mapping.items()}
        self.default = get_codec(default)
        self._identity = get_codec("identity")

    def select(
        self,
        stats_by_column: Mapping[str, ColumnStats],
        profile: QueryProfile,
        size_b: int,
        excluded: Optional[Mapping[str, AbstractSet[str]]] = None,
    ) -> Dict[str, Codec]:
        choices: Dict[str, Codec] = {}
        for name, stats in stats_by_column.items():
            codec = self.mapping.get(name, self.default)
            banned = excluded.get(name, frozenset()) if excluded else frozenset()
            usable = codec.name not in banned and codec.applicable(stats)
            choices[name] = codec if usable else self._identity
        return choices
