"""DecodeCache capacity bounds: hard byte cap + per-tenant quotas.

The serving layer shares one cache across tenants, so the cache must be
bounded in bytes (not just entries) and one tenant's churn must evict
that tenant's own entries, not the fleet's.  Eviction order is pinned to
the monotonic insertion sequence so it is deterministic across runs.
"""

import numpy as np
import pytest

from repro.core.decode_cache import DecodeCache


def arr(n, fill):
    return np.full(n, fill, dtype=np.int64)


def intern_fresh(cache, n, fill, tenant=""):
    """Intern a distinct array of n int64 (8n bytes) for a tenant."""
    return cache.intern(arr(n, fill), tenant=tenant)


class TestByteBound:
    def test_total_bytes_never_exceeds_max_bytes(self, tmp_path):
        cache = DecodeCache(max_entries=64, max_bytes=8 * 100)
        for i in range(20):
            intern_fresh(cache, 10, i)  # 80 bytes each
            assert cache.total_bytes <= 8 * 100
        assert cache.evictions > 0

    def test_eviction_is_oldest_first(self):
        cache = DecodeCache(max_entries=64, max_bytes=8 * 25)
        first = intern_fresh(cache, 10, 1)
        second = intern_fresh(cache, 10, 2)
        # inserting a third 80-byte array (240 > 200) evicts the oldest
        intern_fresh(cache, 10, 3)
        hits_before = cache.hits
        cache.intern(arr(10, 2))  # second still cached
        assert cache.hits == hits_before + 1
        cache.intern(arr(10, 1))  # first was evicted: a miss
        assert cache.hits == hits_before + 1
        assert first is not None and second is not None

    def test_oversized_array_returned_uncached(self):
        cache = DecodeCache(max_entries=8, max_bytes=64)
        out = intern_fresh(cache, 100, 7)  # 800 bytes > 64
        assert out.dtype == np.int64 and len(out) == 100
        assert len(cache) == 0
        assert cache.oversized_rejections == 1
        # asking again is another miss, never a poisoned hit
        cache.intern(arr(100, 7))
        assert cache.oversized_rejections == 2

    def test_entry_bound_still_applies(self):
        cache = DecodeCache(max_entries=4)
        for i in range(10):
            intern_fresh(cache, 4, i)
        assert len(cache) == 4


class TestTenantQuota:
    def test_hot_tenant_evicts_its_own_entries(self):
        cache = DecodeCache(
            max_entries=64, max_bytes=8 * 100, tenant_quota_bytes=8 * 30
        )
        intern_fresh(cache, 10, 100, tenant="cold")
        for i in range(10):
            intern_fresh(cache, 10, i, tenant="hot")
            assert cache.tenant_bytes("hot") <= 8 * 30
        # the cold tenant's single entry survived the hot tenant's churn
        assert cache.tenant_bytes("cold") == 80
        hits_before = cache.hits
        cache.intern(arr(10, 100), tenant="cold")
        assert cache.hits == hits_before + 1

    def test_quota_eviction_is_per_tenant_oldest_first(self):
        cache = DecodeCache(max_entries=64, tenant_quota_bytes=8 * 25)
        intern_fresh(cache, 10, 1, tenant="t")
        intern_fresh(cache, 10, 2, tenant="t")
        intern_fresh(cache, 10, 3, tenant="t")  # evicts fill=1
        hits_before = cache.hits
        cache.intern(arr(10, 3), tenant="t")
        cache.intern(arr(10, 2), tenant="t")
        assert cache.hits == hits_before + 2
        cache.intern(arr(10, 1), tenant="t")
        assert cache.hits == hits_before + 2

    def test_bytes_by_tenant_accounting(self):
        cache = DecodeCache(max_entries=64)
        intern_fresh(cache, 10, 1, tenant="a")
        intern_fresh(cache, 20, 2, tenant="b")
        intern_fresh(cache, 5, 3, tenant="b")
        assert cache.tenant_bytes("a") == 80
        assert cache.tenant_bytes("b") == 200
        assert cache.total_bytes == 280

    def test_quota_larger_than_max_bytes_rejected(self):
        with pytest.raises(ValueError):
            DecodeCache(max_bytes=100, tenant_quota_bytes=200)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_entries": 0},
            {"max_bytes": 0},
            {"tenant_quota_bytes": 0},
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecodeCache(**kwargs)

    def test_shared_hit_does_not_reattribute_bytes(self):
        # interning identical content from another tenant is a hit; the
        # bytes stay charged to the original inserter (content-addressed
        # storage has one owner: first writer)
        cache = DecodeCache(max_entries=64, tenant_quota_bytes=8 * 100)
        intern_fresh(cache, 10, 9, tenant="a")
        cache.intern(arr(10, 9), tenant="b")
        assert cache.tenant_bytes("a") == 80
        assert cache.tenant_bytes("b") == 0


class TestDeterminism:
    def test_identical_insert_sequences_identical_state(self):
        def build():
            cache = DecodeCache(
                max_entries=8, max_bytes=8 * 40, tenant_quota_bytes=8 * 20
            )
            for i in range(12):
                intern_fresh(cache, 10, i, tenant=f"t{i % 3}")
            return cache

        a, b = build(), build()
        for tenant in ("t0", "t1", "t2"):
            assert a.tenant_bytes(tenant) == b.tenant_bytes(tenant)
        assert a.evictions == b.evictions
        assert len(a) == len(b)
