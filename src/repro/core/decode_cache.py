"""Per-column decode cache: reuse repeated dictionary/metadata segments.

Stream batches frequently resend identical metadata — a slowly-changing
DICT/Bitmap dictionary, an all-equal column's payload — and the server
used to rebuild the same arrays batch after batch.  The cache interns
metadata arrays by content digest (so one shared, read-only array backs
every batch that carries it), memoizes whole-column decompression for
byte-identical compressed columns, and memoizes mid-pipeline format
morphs (recompressing a column under a different codec for the server's
plane-serving path).

All stores are small LRUs: stream metadata has low cardinality, so a
handful of entries capture the repetition without growing with the stream.

Capacity is bounded three ways, all with deterministic eviction order:

* ``max_entries`` — the original per-store LRU entry bound;
* ``max_bytes`` — a hard bound on the summed cached bytes across *all*
  stores; exceeding it evicts globally oldest entries first (by a
  monotonic insertion sequence, never by dict-iteration accidents);
* ``tenant_quota_bytes`` — the multi-tenant fairness bound: an insert
  that pushes one tenant over its quota evicts *that tenant's own*
  oldest entries, so a hot tenant with high-cardinality metadata cannot
  evict the world.

An array too large for the applicable bound is returned uncached.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compression.base import Codec, CompressedColumn

#: Metadata keys that hold arrays worth interning across batches.
#: ``s2_dictionary`` is a cascade's inner-stage dictionary (see
#: :mod:`repro.compression.cascade`).
_META_ARRAY_KEYS = ("dictionary", "s2_dictionary")

#: cache entry: (cached value, nbytes, owning tenant, insertion sequence);
#: the value is an ndarray in the array/decoded stores and a
#: :class:`~repro.compression.base.CompressedColumn` in the morph store
_Entry = Tuple[Any, int, str, int]


def _column_digest(column: "CompressedColumn") -> bytes:
    """Content digest covering payload and metadata (decode inputs).

    The codec name is hashed first, so two columns with byte-identical
    payloads under different codecs — e.g. a cascade column and the
    inner-stage column it wraps — can never share a digest.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(column.codec.encode())
    h.update(str(column.n).encode())
    h.update(column.payload.tobytes())
    for key in sorted(column.meta):
        value = column.meta[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.digest()


def _column_nbytes(column: "CompressedColumn") -> int:
    """Resident bytes of a cached compressed column (payload + metadata)."""
    total = int(column.payload.nbytes)
    for value in column.meta.values():
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
    return total


class DecodeCache:
    """Bounded LRU over interned metadata arrays and decoded columns."""

    def __init__(
        self,
        max_entries: int = 32,
        max_bytes: Optional[int] = None,
        tenant_quota_bytes: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive when set")
        if tenant_quota_bytes is not None and tenant_quota_bytes < 1:
            raise ValueError("tenant_quota_bytes must be positive when set")
        if (
            max_bytes is not None
            and tenant_quota_bytes is not None
            and tenant_quota_bytes > max_bytes
        ):
            raise ValueError("tenant_quota_bytes cannot exceed max_bytes")
        self.max_entries = int(max_entries)
        self.max_bytes = max_bytes
        self.tenant_quota_bytes = tenant_quota_bytes
        self._arrays: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._decoded: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._morphed: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self._seq = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: inserts skipped because the array alone exceeded a bound
        self.oversized_rejections = 0
        #: recompressions served from / added to the morph store
        self.morph_hits = 0
        self.morph_misses = 0

    # ----- accounting ------------------------------------------------------

    def _stores(self) -> Tuple["OrderedDict[bytes, _Entry]", ...]:
        return (self._arrays, self._decoded, self._morphed)

    @property
    def total_bytes(self) -> int:
        return sum(e[1] for store in self._stores() for e in store.values())

    def tenant_bytes(self, tenant: str) -> int:
        return sum(
            e[1]
            for store in self._stores()
            for e in store.values()
            if e[2] == tenant
        )

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores())

    # ----- public API ------------------------------------------------------

    def intern(self, array: np.ndarray, tenant: str = "") -> np.ndarray:
        """Return a shared read-only array with this content."""
        key = hashlib.blake2b(
            str(array.dtype).encode() + array.tobytes(), digest_size=16
        ).digest()
        hit = self._arrays.get(key)
        if hit is not None:
            self._arrays.move_to_end(key)
            self.hits += 1
            return hit[0]
        self.misses += 1
        shared = np.ascontiguousarray(array)
        shared.setflags(write=False)
        self._put(self._arrays, key, shared, tenant)
        return shared

    def intern_meta(self, column: "CompressedColumn", tenant: str = "") -> None:
        """Replace known metadata arrays with their interned versions."""
        for key in _META_ARRAY_KEYS:
            value = column.meta.get(key)
            if isinstance(value, np.ndarray):
                column.meta[key] = self.intern(value, tenant=tenant)

    def decompress(
        self, codec: "Codec", column: "CompressedColumn", tenant: str = ""
    ) -> np.ndarray:
        """``codec.decompress`` memoized on the column's content digest."""
        key = _column_digest(column)
        hit = self._decoded.get(key)
        if hit is not None:
            self._decoded.move_to_end(key)
            self.hits += 1
            return hit[0]
        self.misses += 1
        values = np.ascontiguousarray(codec.decompress(column), dtype=np.int64)
        values.setflags(write=False)
        self._put(self._decoded, key, values, tenant)
        return values

    def morph(
        self,
        codec: "Codec",
        column: "CompressedColumn",
        target: "Codec",
        tenant: str = "",
    ) -> "CompressedColumn":
        """Recompress a column under ``target``, memoized on content digest.

        The key extends the source column's digest with the target codec
        name, so the same wire payload morphed to two different layouts
        occupies two entries and a morphed intermediate can never collide
        with a plain decode of the same bytes.
        """
        key = _column_digest(column) + target.name.encode()
        hit = self._morphed.get(key)
        if hit is not None:
            self._morphed.move_to_end(key)
            self.morph_hits += 1
            return hit[0]
        self.morph_misses += 1
        values = np.ascontiguousarray(codec.decompress(column), dtype=np.int64)
        morphed = target.compress(values)
        self._put(
            self._morphed, key, morphed, tenant, nbytes=_column_nbytes(morphed)
        )
        return morphed

    # ----- insertion and eviction ------------------------------------------

    def _put(
        self,
        store: "OrderedDict[bytes, _Entry]",
        key: bytes,
        value: Any,
        tenant: str,
        nbytes: Optional[int] = None,
    ) -> None:
        if nbytes is None:
            nbytes = int(value.nbytes)
        limit = self.max_bytes
        if self.tenant_quota_bytes is not None:
            limit = (
                self.tenant_quota_bytes
                if limit is None
                else min(limit, self.tenant_quota_bytes)
            )
        if limit is not None and nbytes > limit:
            # caching it would immediately evict it (or everything else);
            # hand the array back uncached instead
            self.oversized_rejections += 1
            return
        store[key] = (value, nbytes, tenant, self._seq)
        self._seq += 1
        while len(store) > self.max_entries:
            store.popitem(last=False)
            self.evictions += 1
        if self.tenant_quota_bytes is not None:
            self._evict_tenant_to_quota(tenant)
        if self.max_bytes is not None:
            self._evict_to_bytes()

    def _evict_tenant_to_quota(self, tenant: str) -> None:
        """Evict the inserting tenant's own oldest entries down to quota."""
        quota = self.tenant_quota_bytes
        if quota is None:
            return
        while self.tenant_bytes(tenant) > quota:
            victim = min(
                (
                    (entry[3], store, key)
                    for store in self._stores()
                    for key, entry in store.items()
                    if entry[2] == tenant
                ),
                key=lambda item: item[0],
            )
            del victim[1][victim[2]]
            self.evictions += 1

    def _evict_to_bytes(self) -> None:
        """Evict globally oldest entries until under the hard byte bound."""
        limit = self.max_bytes
        if limit is None:
            return
        while self.total_bytes > limit and len(self):
            victim = min(
                (
                    (entry[3], store, key)
                    for store in self._stores()
                    for key, entry in store.items()
                ),
                key=lambda item: item[0],
            )
            del victim[1][victim[2]]
            self.evictions += 1
