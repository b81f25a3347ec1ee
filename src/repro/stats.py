"""Column statistics feeding the compression-ratio estimators (Sec. V).

The paper's per-codec compression ratios (Eqs. 10-17) are functions of a
small set of dataset properties: the Elias code domains ``EGDomain`` /
``EDDomain``, the per-element significant-byte array ``ValueDomain``, the
Base-Delta domain ``BDDomain``, the average run length and the number of
distinct values ``Kindnum``.  :class:`ColumnStats` computes all of them in
one fused pass over a (sample of a) column: no sort unless the value span
is wide, and no floating-point logarithm anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CodecError
from .types import bytes_for_signed, bytes_for_unsigned

#: Dense-vs-sort rule shared by ``Kindnum`` and dictionary coding: a column
#: whose value span ``max - min`` is below this many times its length is
#: counted with a presence array over ``[min, max]`` (at most this many
#: bytes per element); a wider span is sorted instead.
DENSE_SPAN_FACTOR = 8

#: Smallest magnitude that needs ``k + 1`` bytes, for k = 1..7: ``2^(8k)``
#: unsigned, ``2^(8k-1)`` in two's complement (a negative v is measured as
#: ``~v``, so ``-2^(8k-1)`` still fits k bytes).
_UNSIGNED_STEPS = np.array([1 << (8 * k) for k in range(1, 8)], dtype=np.int64)
_SIGNED_STEPS = np.array([1 << (8 * k - 1) for k in range(1, 8)], dtype=np.int64)


def elias_gamma_bits(value: int) -> int:
    """Length in bits of the Elias Gamma code of a positive integer."""
    if value < 1:
        raise CodecError("Elias Gamma encodes positive integers only")
    n = int(value).bit_length() - 1
    return 2 * n + 1


def elias_delta_bits(value: int) -> int:
    """Length in bits of the Elias Delta code of a positive integer."""
    if value < 1:
        raise CodecError("Elias Delta encodes positive integers only")
    n = int(value).bit_length() - 1
    return elias_gamma_bits(n + 1) + n


def average_run_length(values: np.ndarray) -> float:
    """Mean length of runs of equal consecutive values (empty -> 0)."""
    n = len(values)
    if n == 0:
        return 0.0
    changes = int(np.count_nonzero(values[1:] != values[:-1]))
    return n / (changes + 1)


def value_domain(values: np.ndarray, *, signed: Optional[bool] = None) -> np.ndarray:
    """Per-element significant byte widths (the paper's ``ValueDomain``).

    If ``signed`` is None it is inferred from the column: a column with any
    negative value is stored in two's complement, so *every* element
    (including positives) pays one sign bit; an all-non-negative column uses
    plain leading-zero suppression (``signed=False`` assumes no negatives).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    lo, hi = int(values.min()), int(values.max())
    if signed is None:
        signed = lo < 0
    if signed:
        # v ^ (v >> 63) is ~v for negatives and v otherwise
        magnitude, top, steps = values ^ (values >> 63), max(hi, ~lo), _SIGNED_STEPS
    else:
        magnitude, top, steps = values, hi, _UNSIGNED_STEPS
    widths = np.ones(values.size, dtype=np.uint8)
    for step in steps.tolist():
        if top < step:
            break
        widths += magnitude >= step
    return widths.astype(np.int64)


def _count_at_least(values: np.ndarray, lo: int, hi: int, bound: int) -> int:
    """``count(values >= bound)``, without a pass when [lo, hi] decides it."""
    if hi < bound:
        return 0
    if lo >= bound:
        return int(values.size)
    return int(np.count_nonzero(values >= bound))


def _width_histogram(values: np.ndarray, lo: int, hi: int) -> Tuple[int, ...]:
    """Counts of per-element byte widths, indexed 0..8 (index 0 is unused).

    ``wider[k]`` counts the elements needing more than k bytes; each is one
    threshold count (two for a signed column), and byte steps that the
    column range [lo, hi] already decides cost no pass at all.
    """
    n = int(values.size)
    signed = lo < 0
    wider = [n]
    for step in (_SIGNED_STEPS if signed else _UNSIGNED_STEPS).tolist():
        count = _count_at_least(values, lo, hi, step)
        if signed:
            # ~v >= step  <=>  v < -step  <=>  not v >= -step
            count += n - _count_at_least(values, lo, hi, -step)
        wider.append(count)
        if count == 0:
            break
    wider += [0] * (9 - len(wider))
    return (0,) + tuple(wider[w - 1] - wider[w] for w in range(1, 9))


def value_presence(
    values: np.ndarray, lo: int, hi: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(values - lo, present)`` when the span of ``values`` is dense, else None.

    ``present[k]`` tells whether ``lo + k`` occurs; ``lo``/``hi`` are the
    column's min and max.  Dense means ``hi - lo < DENSE_SPAN_FACTOR * n``,
    decided on Python ints, so ``values - lo`` is only formed when it
    cannot overflow int64.  ``Kindnum`` counts through here; :func:`factorize`
    applies the same rule and numbers through :func:`renumber`.
    """
    if hi - lo >= DENSE_SPAN_FACTOR * values.size:
        return None
    offsets = values - np.int64(lo)
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offsets] = True
    return offsets, present


def renumber(ids: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """(present ids ascending, dense id per element) of ids in ``[0, span)``.

    A known span needs no min/max pass: a presence scatter, ``flatnonzero``
    and a lookup gather.  One wider than ``DENSE_SPAN_FACTOR`` ids per
    element goes through :func:`factorize`, which sorts unless it is dense.
    """
    if span > DENSE_SPAN_FACTOR * ids.size:
        return factorize(ids)
    present = np.zeros(span, dtype=bool)
    present[ids] = True
    slots = np.flatnonzero(present)
    # only the slots of present ids are ever read back
    lut = np.empty(span, dtype=np.int64)
    lut[slots] = np.arange(slots.size, dtype=np.int64)
    return slots, lut[ids]


def factorize(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, dense id per element), ids in value order.

    A dense span is :func:`renumber`-ed over ``value - min``; only a wide
    span sorts, so dictionary codes, dense by construction, never do.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size:
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < DENSE_SPAN_FACTOR * values.size:
            slots, ids = renumber(values - np.int64(lo), hi - lo + 1)
            return slots + lo, ids
    uniques, ids = np.unique(values, return_inverse=True)
    return uniques, ids.astype(np.int64).reshape(-1)


def factorize_rows(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Dense ids of the row tuples of equal-length columns, and their count.

    Ids number the tuples in lexicographic order.  Column offsets ``codes -
    min`` are mixed in radix ``max - min + 1``; before the running span (a
    Python int) would reach ``DENSE_SPAN_FACTOR`` ids per row, the partial
    ids are :func:`renumber`-ed.  A column is factorized alone only if its
    span is wide or, renumbered, the mix would still reach the limit.
    Mixed spans stay below ``8 n``: ids stay below ``64 n^2``, never wrap.
    """
    n = len(columns[0])
    if not n:
        return np.zeros(0, dtype=np.int64), 0
    limit = DENSE_SPAN_FACTOR * n
    ids: Optional[np.ndarray] = None
    span = 1
    for values in columns:
        values = np.asarray(values, dtype=np.int64)
        lo, hi = int(values.min()), int(values.max())
        width = hi - lo + 1
        if span * width >= limit and ids is not None:
            slots, ids = renumber(ids, span)
            span = slots.size
        if span * width >= limit:
            uniques, offsets = factorize(values)  # sorts only a wide column
            width = uniques.size
        else:
            offsets = values - np.int64(lo) if lo else values
        ids = offsets if ids is None else ids * width + offsets
        span *= width
    assert ids is not None
    slots, ids = renumber(ids, span)
    return ids, int(slots.size)


def _distinct_count(values: np.ndarray, lo: int, hi: int) -> int:
    """``Kindnum``: presence count over a dense span, a sort otherwise."""
    dense = value_presence(values, lo, hi)
    if dense is not None:
        return int(np.count_nonzero(dense[1]))
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


@dataclass(frozen=True)
class ColumnStats:
    """One-pass statistics of an integer column used by Eqs. 10-17."""

    n: int
    size_c: int  # bytes per source element (the paper's Size_C)
    min_value: int
    max_value: int
    kindnum: int
    avg_run_length: float
    value_domain_max: int
    value_domain_sum: int
    #: Distribution of per-element widths, kept for the NSV estimator and
    #: diagnostics; indices are byte widths 1..8.
    width_histogram: tuple = field(default=(0,) * 9)
    #: consecutive-difference range, feeding the delta-chain estimator
    delta_min: int = 0
    delta_max: int = 0

    @classmethod
    def from_values(
        cls, values: np.ndarray, size_c: Optional[int] = None
    ) -> "ColumnStats":
        values = np.asarray(values, dtype=np.int64)
        n = int(values.size)
        if n == 0:
            raise CodecError("cannot compute statistics of an empty column")
        lo, hi = int(values.min()), int(values.max())
        # one diff feeds both the run count and the delta range (a zero
        # wrapped difference is an equal pair)
        changes = delta_min = delta_max = 0
        if n > 1:
            diffs = np.diff(values)
            changes = int(np.count_nonzero(diffs))
            delta_min, delta_max = int(diffs.min()), int(diffs.max())
        hist = _width_histogram(values, lo, hi)
        return cls(
            n=n,
            size_c=int(size_c) if size_c is not None else 8,
            min_value=lo,
            max_value=hi,
            kindnum=_distinct_count(values, lo, hi),
            avg_run_length=n / (changes + 1),
            value_domain_max=max(w for w, count in enumerate(hist) if count),
            value_domain_sum=sum(w * count for w, count in enumerate(hist)),
            width_histogram=hist,
            delta_min=delta_min,
            delta_max=delta_max,
        )

    # ----- derived domains used by the ratio estimators -----------------

    @property
    def all_positive_domain(self) -> bool:
        """Whether Elias codes apply (non-negative after the +1 shift)."""
        return self.min_value >= 0

    @property
    def eg_domain_bytes(self) -> int:
        """``EGDomain``: max bytes of an aligned Elias Gamma codeword."""
        if not self.all_positive_domain:
            raise CodecError("EGDomain undefined for columns with negatives")
        return (elias_gamma_bits(self.max_value + 1) + 7) // 8

    @property
    def ed_domain_bytes(self) -> int:
        """``EDDomain``: max bytes of an aligned Elias Delta codeword."""
        if not self.all_positive_domain:
            raise CodecError("EDDomain undefined for columns with negatives")
        return (elias_delta_bits(self.max_value + 1) + 7) // 8

    @property
    def ns_width(self) -> int:
        """``ValueDomain_MAX``: fixed width chosen by Null Suppression."""
        return self.value_domain_max

    @property
    def bd_domain_bytes(self) -> int:
        """``BDDomain``: bytes needed for deltas from the column minimum."""
        return bytes_for_unsigned(self.max_value - self.min_value)

    @property
    def delta_domain_bytes(self) -> int:
        """Bytes needed per consecutive difference (delta-chain codec)."""
        return bytes_for_signed(self.delta_min, self.delta_max)

    @property
    def dict_code_bytes(self) -> int:
        """Bytes per Dictionary code: ceil(log2(Kindnum) / 8), at least 1."""
        if self.kindnum <= 1:
            return 1
        bits = (self.kindnum - 1).bit_length()
        return max((bits + 7) // 8, 1)

    @property
    def bitmap_bits_per_element(self) -> int:
        """Bits per element under Bitmap: 2^ceil(log2 Kindnum) (Eq. 17)."""
        if self.kindnum <= 1:
            return 1
        return 1 << (self.kindnum - 1).bit_length()
