"""The cascade-aware test battery: codecs, morphing, cache, runtime.

Locks down the cascaded codec families (``dict+rle``, ``delta+ns``,
``bd+nsv``, ``dict+bitmap``) and the mid-pipeline format-morphing path:

* hypothesis round-trips for every cascade in both kernel dispatch modes;
* golden format digests (payload + metadata) pinning the wire layout;
* wire-frame round-trips carrying cascade metadata;
* composed calibration fallback for tables recorded before cascades;
* the ``adaptive+cascades`` engine mode;
* :class:`~repro.core.decode_cache.DecodeCache` collision-resistance
  between a cascade column and its identical inner-stage payload, plus
  the morph store's hit accounting;
* the server's morph serving path end-to-end: identical answers with the
  morph on and off, ``morphed_columns`` reported, cache hits on repeats.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CASCADE_POOL, get_codec
from repro.compression.cascade import CascadeCodec
from repro.compression.kernels import scalar_reference_mode
from repro.compression.registry import all_codec_names, default_pool
from repro.core.calibration import CalibrationError, CalibrationTable, CodecTiming
from repro.core.decode_cache import DecodeCache, _column_digest
from repro.core.server import Server
from repro.errors import CodecNotApplicable
from repro.optimizer import plan_for_engine, stats_from_columns
from repro.stats import ColumnStats
from repro.stream.batch import Batch, CompressedBatch
from repro.stream.schema import Field, Schema
from repro.wire import deserialize_batch, serialize_batch

CASCADES = sorted(CASCADE_POOL)

int_columns = st.lists(
    st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

#: runny, low-cardinality columns: the regime cascades are built for
runny_columns = st.lists(
    st.tuples(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda runs: np.concatenate(
        [np.full(length, value, dtype=np.int64) for value, length in runs]
    )
)


def _roundtrip(codec_name, values):
    codec = get_codec(codec_name)
    stats = ColumnStats.from_values(values)
    if not codec.applicable(stats):
        return
    try:
        cc = codec.compress(values)
    except CodecNotApplicable:
        return
    np.testing.assert_array_equal(codec.decompress(cc), values)


class TestCascadeRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(values=int_columns)
    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_roundtrip_any_ints(self, codec_name, values):
        _roundtrip(codec_name, values)

    @settings(max_examples=60, deadline=None)
    @given(values=runny_columns)
    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_roundtrip_runny(self, codec_name, values):
        _roundtrip(codec_name, values)

    @settings(max_examples=25, deadline=None)
    @given(values=runny_columns)
    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_roundtrip_scalar_reference_mode(self, codec_name, values):
        with scalar_reference_mode():
            _roundtrip(codec_name, values)

    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_vectorized_and_scalar_payloads_are_identical(self, codec_name):
        rng = np.random.default_rng(3)
        values = np.repeat(rng.integers(-100, 100, 50), 4)
        codec = get_codec(codec_name)
        fast = codec.compress(values)
        with scalar_reference_mode():
            slow = codec.compress(values)
        np.testing.assert_array_equal(fast.payload, slow.payload)
        assert sorted(fast.meta) == sorted(slow.meta)


# ----- golden formats --------------------------------------------------


def _format_digest(cc) -> str:
    h = hashlib.sha256()
    h.update(cc.payload.tobytes())
    for key in sorted(cc.meta):
        value = cc.meta[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()[:16]


def _golden_columns():
    rng = np.random.default_rng(7)
    return {
        "dict+rle": np.repeat(rng.integers(-50, 50, 40), 6)[:200],
        "delta+ns": np.cumsum(rng.integers(0, 7, 200)) + 1_000_000,
        "bd+nsv": rng.integers(5_000_000, 5_300_000, 200),
        "dict+bitmap": rng.integers(0, 6, 200) * 1000,
    }


#: pinned payload+meta digests: a change here is a wire-format break
GOLDEN_DIGESTS = {
    "dict+rle": "7584f6e910809bb4",
    "delta+ns": "e25aa04a69edfb87",
    "bd+nsv": "662dbc062c566bbb",
    "dict+bitmap": "0be4ea90d51f4c76",
}


class TestCascadeGoldenFormats:
    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_format_digest_is_pinned(self, codec_name):
        values = _golden_columns()[codec_name].astype(np.int64)
        cc = get_codec(codec_name).compress(values)
        assert _format_digest(cc) == GOLDEN_DIGESTS[codec_name]

    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_format_digest_is_pinned_in_scalar_mode(self, codec_name):
        values = _golden_columns()[codec_name].astype(np.int64)
        with scalar_reference_mode():
            cc = get_codec(codec_name).compress(values)
        assert _format_digest(cc) == GOLDEN_DIGESTS[codec_name]

    def test_dict_rle_layout(self):
        # [30, 10, 30, 30] -> dictionary [10, 30], codes [1, 0, 1, 1]
        # -> rle runs (1, 0, 1) with lengths (1, 1, 2)
        cc = get_codec("dict+rle").compress(
            np.array([30, 10, 30, 30], dtype=np.int64)
        )
        np.testing.assert_array_equal(cc.meta["dictionary"], [10, 30])
        run_values = cc.payload[: 3 * 8].view(np.int64)
        run_lengths = cc.payload[3 * 8 :].view(np.int32)
        np.testing.assert_array_equal(run_values, [1, 0, 1])
        np.testing.assert_array_equal(run_lengths, [1, 1, 2])

    def test_delta_ns_layout(self):
        # deltas [0, 1, 2] pack to one unsigned byte each; the stage-1
        # start value rides in the cascade metadata
        cc = get_codec("delta+ns").compress(
            np.array([100, 101, 103], dtype=np.int64)
        )
        assert cc.meta["first"] == 100
        assert cc.meta["s2_width"] == 1
        assert bytes(cc.payload) == b"\x00\x01\x02"

    def test_nbytes_charges_stage1_metadata(self):
        values = np.repeat(np.arange(4, dtype=np.int64), 8)
        cc = get_codec("dict+rle").compress(values)
        inner = get_codec("dict+rle").inner_column(cc)
        assert cc.nbytes == inner.nbytes + cc.meta["dictionary"].nbytes


class TestCascadeEstimates:
    @pytest.mark.parametrize("codec_name", CASCADES)
    @pytest.mark.parametrize("shape", ["small_range", "runs", "monotone"])
    def test_estimate_tracks_achieved_ratio(
        self, codec_name, shape, column_shapes
    ):
        """Composed Sec. V estimates must track the payload-only ratio.

        Cascades compose two stage estimates, so the error compounds: a
        wider tolerance than the single-codec test, but the same shape.
        """
        codec = get_codec(codec_name)
        values = column_shapes[shape]
        stats = ColumnStats.from_values(values)
        if not codec.applicable(stats):
            pytest.skip("not applicable")
        cc = codec.compress(values)
        estimated = codec.estimate_ratio(stats)
        achieved_payload = (values.size * 8) / cc.payload.nbytes
        assert estimated == pytest.approx(achieved_payload, rel=0.6)

    @pytest.mark.parametrize("codec_name", CASCADES)
    def test_transmitted_ratio_counts_metadata(self, codec_name):
        rng = np.random.default_rng(5)
        values = np.repeat(rng.integers(0, 8, 64), 8)
        codec = get_codec(codec_name)
        stats = ColumnStats.from_values(values)
        if not codec.applicable(stats):
            pytest.skip("not applicable")
        # transmitted estimate must not exceed the payload-only estimate
        assert codec.estimate_transmitted_ratio(stats) <= (
            codec.estimate_ratio(stats) * 1.0 + 1e-9
        )


# ----- registry, pool, wire, calibration --------------------------------


class TestCascadeIntegration:
    def test_registry_lists_cascades(self):
        names = all_codec_names()
        for name in CASCADE_POOL:
            assert name in names
            assert isinstance(get_codec(name), CascadeCodec)

    def test_default_pool_excludes_cascades_unless_extended(self):
        plain = {c.name for c in default_pool()}
        assert not (plain & set(CASCADE_POOL))
        extended = {c.name for c in default_pool(extensions=CASCADE_POOL)}
        assert set(CASCADE_POOL) <= extended

    def test_wire_roundtrip_with_cascade_columns(self):
        schema = Schema([Field("ts", "int", 8), Field("k", "int", 4)])
        rng = np.random.default_rng(9)
        columns = {
            "ts": np.cumsum(rng.integers(0, 5, 64)).astype(np.int64),
            "k": np.repeat(rng.integers(0, 6, 16), 4).astype(np.int64),
        }
        cc = {
            "ts": get_codec("delta+ns").compress(columns["ts"]),
            "k": get_codec("dict+rle").compress(columns["k"]),
        }
        batch = CompressedBatch(schema, 64, cc)
        frame = serialize_batch(batch)
        decoded = deserialize_batch(frame, schema)
        for name in columns:
            codec = get_codec(decoded.columns[name].codec)
            np.testing.assert_array_equal(
                codec.decompress(decoded.columns[name]), columns[name]
            )

    def test_composed_calibration_fallback(self):
        # a table recorded before cascades existed still prices them:
        # stage-proxy + stage-2 coefficients summed per Eqs. 2/6
        base = {
            name: CodecTiming(1e-9, 1e-6, 2e-9, 1e-6)
            for name in ("identity", "dict", "rle", "deltachain", "ns")
        }
        table = CalibrationTable(timings=base)
        t = table.timing("dict+rle")
        assert t.compress_a == pytest.approx(2e-9)
        assert t.decompress_a == pytest.approx(4e-9)
        # delta proxies through deltachain
        assert table.timing("delta+ns").compress_a == pytest.approx(2e-9)
        with pytest.raises(CalibrationError):
            table.timing("bd+nsv")  # bd/nsv never calibrated: still an error

    def test_adaptive_cascades_mode_extends_the_pool(self, fast_calibration):
        from repro import CompressStreamDB, EngineConfig
        from repro.core.selector import AdaptiveSelector

        schema = Schema([Field("a")])
        engine = CompressStreamDB(
            {"S": schema},
            "select count(*) as c from S [range 8 slide 8]",
            EngineConfig(mode="adaptive+cascades", calibration=fast_calibration),
        )
        pipeline = engine.make_pipeline()
        selector = pipeline.client.selector
        assert isinstance(selector, AdaptiveSelector)
        assert set(CASCADE_POOL) <= {c.name for c in selector.pool}

    def test_adaptive_cascades_answers_match_baseline(self, fast_calibration):
        from repro import CompressStreamDB, EngineConfig
        from repro.stream.source import GeneratorSource

        schema = Schema([Field("k", "int", 4), Field("v", "int", 8)])
        rng = np.random.default_rng(2)

        def make(index):
            return {
                "k": np.repeat(rng.integers(0, 5, 16), 8),
                "v": np.cumsum(rng.integers(0, 9, 128)),
            }

        query = "select k, sum(v) as s from S [range 64 slide 64] group by k"
        reports = {}
        for mode in ("baseline", "adaptive+cascades"):
            engine = CompressStreamDB(
                {"S": schema},
                query,
                EngineConfig(mode=mode, calibration=fast_calibration),
            )
            rng = np.random.default_rng(2)  # same data per mode
            src = GeneratorSource(schema, make, limit=3)
            reports[mode] = engine.run(src, collect_outputs=True)
        base = reports["baseline"].outputs
        casc = reports["adaptive+cascades"].outputs
        assert sorted(base.columns) == sorted(casc.columns)
        for name in base.columns:
            np.testing.assert_allclose(
                np.sort(base.columns[name]), np.sort(casc.columns[name])
            )


# ----- decode-cache collision + morph store ------------------------------


class TestDecodeCacheCascadeKeys:
    def test_cascade_and_inner_payload_digests_cannot_collide(self):
        # dictionary [0, 1, 2] encodes values to themselves, so the
        # cascade payload is byte-identical to plain RLE on the same ints
        values = np.array([0, 0, 1, 1, 1, 2], dtype=np.int64)
        cascade = get_codec("dict+rle").compress(values)
        inner = get_codec("rle").compress(values)
        np.testing.assert_array_equal(cascade.payload, inner.payload)
        assert _column_digest(cascade) != _column_digest(inner)

    def test_cache_decodes_both_twins_correctly(self):
        values = np.array([0, 0, 1, 1, 1, 2], dtype=np.int64)
        cascade = get_codec("dict+rle").compress(values)
        inner = get_codec("rle").compress(values)
        cache = DecodeCache()
        out_cascade = cache.decompress(get_codec("dict+rle"), cascade)
        out_inner = cache.decompress(get_codec("rle"), inner)
        np.testing.assert_array_equal(out_cascade, values)
        np.testing.assert_array_equal(out_inner, values)
        assert cache.misses == 2  # two distinct entries, no false sharing

    def test_morph_store_memoizes_and_reports_hits(self):
        values = np.repeat(np.arange(4, dtype=np.int64), 8)
        column = get_codec("rle").compress(values)
        cache = DecodeCache()
        first = cache.morph(get_codec("rle"), column, get_codec("bitmap"))
        assert (cache.morph_hits, cache.morph_misses) == (0, 1)
        again = cache.morph(get_codec("rle"), column, get_codec("bitmap"))
        assert (cache.morph_hits, cache.morph_misses) == (1, 1)
        assert again is first
        np.testing.assert_array_equal(
            get_codec("bitmap").decompress(first), values
        )

    def test_morph_key_separates_targets_and_counts_bytes(self):
        values = np.repeat(np.arange(4, dtype=np.int64), 8)
        column = get_codec("dict+rle").compress(values)
        cache = DecodeCache()
        cache.morph(get_codec("dict+rle"), column, get_codec("dict+bitmap"))
        cache.morph(get_codec("dict+rle"), column, get_codec("bitmap"))
        assert cache.morph_misses == 2
        assert len(cache) >= 2
        assert cache.total_bytes > 0  # morphed columns count toward bounds


# ----- the server's morph serving path ----------------------------------


MORPH_SCHEMA = Schema(
    [Field("ts", "int", 8), Field("value", "int", 8), Field("kind", "int", 8)]
)
MORPH_SQL = (
    "select avg(value) as a from S [range 32 slide 32] "
    "where kind == 1 or kind == 3 or kind == 5 or kind == 7"
)


def _morph_batches(batches=3, n=128):
    rng = np.random.default_rng(11)
    out = []
    ts = 0
    for _ in range(batches):
        kind = np.repeat(rng.integers(0, 10, n // 4), 4).astype(np.int64)
        columns = {
            "ts": ts + np.arange(n, dtype=np.int64),
            "value": rng.integers(0, 1000, n).astype(np.int64),
            "kind": kind,
        }
        ts += n
        out.append(Batch(MORPH_SCHEMA, columns))
    return out


def _morph_plan(optimize=True):
    merged = {
        name: np.concatenate([b.column(name) for b in _morph_batches()])
        for name in ("ts", "value", "kind")
    }
    return plan_for_engine(
        {"S": MORPH_SCHEMA},
        MORPH_SQL,
        optimize=optimize,
        codec_hint="rle",
        stats=stats_from_columns(MORPH_SCHEMA, merged),
    ).plan


def _compress_rle(batch):
    identity = get_codec("identity")
    rle = get_codec("rle")
    columns = {}
    for f in batch.schema:
        values = batch.column(f.name)
        stats = ColumnStats.from_values(values, size_c=f.size)
        codec = rle if rle.applicable(stats) else identity
        columns[f.name] = codec.compress(values)
    return CompressedBatch(batch.schema, batch.n, columns)


class TestServerMorphServing:
    def test_plan_carries_a_morph_decision(self):
        plan = _morph_plan()
        assert plan.opt is not None
        assert "morph" in plan.opt.rules_fired
        decisions = {m.column: m for m in plan.opt.morphs}
        assert decisions["kind"].from_codec == "rle"
        assert decisions["kind"].to_codec == "bitmap"
        assert plan.opt.estimated_cost < plan.opt.baseline_cost

    def test_morph_on_equals_morph_off(self):
        batches = _morph_batches()
        morph_server = Server(_morph_plan(optimize=True))
        naive_server = Server(_morph_plan(optimize=False))
        for batch in batches:
            cb = _compress_rle(batch)
            morphed = morph_server.process(cb)
            naive = naive_server.process(cb)
            assert morphed.morphed_columns == ("kind",)
            assert "kind" not in morphed.decoded_columns
            assert naive.morphed_columns == ()
            for name in naive.result.columns:
                np.testing.assert_allclose(
                    naive.result.columns[name], morphed.result.columns[name]
                )

    def test_repeated_payloads_hit_the_morph_cache(self):
        server = Server(_morph_plan())
        batch = _morph_batches(batches=1)[0]
        cb = _compress_rle(batch)
        first = server.process(cb)
        assert (first.morph_cache_hits, first.morph_cache_misses) == (0, 1)
        again = server.process(_compress_rle(batch))
        assert (again.morph_cache_hits, again.morph_cache_misses) == (1, 0)

    def test_morph_falls_through_on_codec_mismatch(self):
        # the batch arrives as identity (not the decision's from-codec):
        # the server must serve it through the ordinary paths
        server = Server(_morph_plan())
        batch = _morph_batches(batches=1)[0]
        identity = get_codec("identity")
        cb = CompressedBatch(
            batch.schema,
            batch.n,
            {
                f.name: identity.compress(batch.column(f.name))
                for f in batch.schema
            },
        )
        report = server.process(cb)
        assert report.morphed_columns == ()
        naive = Server(_morph_plan(optimize=False)).process(cb)
        for name in naive.result.columns:
            np.testing.assert_allclose(
                naive.result.columns[name], report.result.columns[name]
            )
