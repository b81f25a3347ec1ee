"""Unit tests for the client (compression side) and server (query side)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    Client,
    CostModel,
    AdaptiveSelector,
    Server,
    StaticSelector,
    SystemParams,
)
from repro.compression import get_codec
from repro.net import Channel
from repro.sql import plan_query
from repro.stream import Batch, Field, Schema

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("k", "int", 4),
        Field("v", "float", 4, decimals=2),
    ]
)
CATALOG = {"S": SCHEMA}
QUERY = "select ts, k, avg(v) as m from S [range 8 slide 8] group by k"


def make_batch(n=64, seed=0, lo=0, hi=50):
    rng = np.random.default_rng(seed)
    return Batch.from_values(
        SCHEMA,
        {
            "ts": np.arange(n) + 100,
            "k": rng.integers(0, 4, n),
            "v": np.round(rng.integers(lo * 4, hi * 4, n) / 4, 2),
        },
    )


def make_client(selector=None, **kwargs):
    plan = plan_query(QUERY, CATALOG)
    selector = selector or StaticSelector("ns")
    return Client(SCHEMA, selector, plan.profile, **kwargs), plan


class TestClient:
    def test_compresses_every_column(self):
        client, _ = make_client()
        outcome = client.compress_batch(make_batch())
        assert set(outcome.batch.columns) == {"ts", "k", "v"}
        assert outcome.choices == {"ts": "ns", "k": "ns", "v": "ns"}
        assert outcome.seconds > 0

    def test_identity_ships_declared_field_width(self):
        client, _ = make_client(StaticSelector("identity"))
        batch = make_batch(32)
        outcome = client.compress_batch(batch)
        # Size_T = 8 + 4 + 4 = 16 bytes per tuple
        assert outcome.batch.nbytes == 32 * 16

    def test_redecision_cadence(self, fast_calibration):
        model = CostModel(fast_calibration, SystemParams(), Channel())
        client, _ = make_client(AdaptiveSelector(model), redecide_every=3)
        for i in range(7):
            outcome = client.compress_batch(make_batch(seed=i))
            assert outcome.reselected == (i % 3 == 0)
        assert len(client.decision_log) == 3

    def test_inapplicable_choice_falls_back_to_identity(self):
        # static EG chosen from a non-negative sample, then a batch with
        # negatives arrives: the client must not stall
        client, _ = make_client(StaticSelector("eg"))
        client.compress_batch(make_batch(seed=1))
        negative = Batch.from_values(
            SCHEMA,
            {"ts": [-5, 2], "k": [0, 1], "v": [1.0, 2.0]},
        )
        outcome = client.compress_batch(negative)
        assert outcome.batch.columns["ts"].codec == "identity"

    def test_lookahead_limits_sample(self, fast_calibration):
        model = CostModel(fast_calibration, SystemParams(), Channel())
        client, _ = make_client(AdaptiveSelector(model), lookahead=2)
        upcoming = [make_batch(seed=s) for s in range(5)]
        outcome = client.compress_batch(make_batch(), upcoming=upcoming)
        assert outcome.reselected

    def test_validation(self):
        with pytest.raises(ValueError):
            make_client(redecide_every=0)
        with pytest.raises(ValueError):
            make_client(lookahead=0)


class TestServer:
    def test_direct_columns_not_decoded(self):
        client, plan = make_client(StaticSelector("ns"))
        server = Server(plan)
        report = server.process(client.compress_batch(make_batch()).batch)
        assert report.decoded_columns == ()  # NS serves k (equality), v (affine)
        assert report.query_seconds > 0

    def test_rle_served_from_runs_without_decode(self):
        # RLE is β = 1 but its payload is run-structured, so the server
        # hands the executor (value, length) pairs instead of decompressing.
        client, plan = make_client(StaticSelector("rle"))
        server = Server(plan)
        report = server.process(client.compress_batch(make_batch()).batch)
        assert report.decoded_columns == ()
        assert set(report.direct_columns) == {"k", "ts", "v"}
        assert report.decompress_seconds == 0

    def test_capability_miss_decodes_single_column(self):
        # ED serves equality keys directly but not avg (affine)
        client, plan = make_client(StaticSelector("ed"))
        server = Server(plan)
        report = server.process(client.compress_batch(make_batch()).batch)
        assert report.decoded_columns == ("v",)

    def test_decoded_arrays_die_with_their_batch(self):
        # the server keeps no decode state: once batch i + 1 is processed,
        # nothing holds an array the server decoded for batch i
        client, plan = make_client(StaticSelector("ed"))
        server = Server(plan)
        decompress = server.cache.decompress
        decoded = []

        def recording_decompress(*args, **kwargs):
            values = decompress(*args, **kwargs)
            decoded.append(weakref.ref(values))
            return values

        server.cache.decompress = recording_decompress
        server.process(client.compress_batch(make_batch(seed=1)).batch)
        first = list(decoded)
        server.process(client.compress_batch(make_batch(seed=2)).batch)
        gc.collect()
        assert len(first) == 1 and len(decoded) == 2
        assert first[0]() is None

    def test_window_last_column_decodes_once_per_window(self, monkeypatch):
        # ts is neither a key nor an aggregate: each window's last row is
        # decoded once and spread over that window's groups; k decodes once
        # per group of the batch, read back from the group numbering
        client, plan = make_client(StaticSelector("dict"))
        dict_codec = type(get_codec("dict"))
        decode_codes = dict_codec.decode_codes
        sizes = []

        def spy(self, column, codes):
            sizes.append(len(codes))
            return decode_codes(self, column, codes)

        monkeypatch.setattr(dict_codec, "decode_codes", spy)
        batch = make_batch()
        report = Server(plan).process(client.compress_batch(batch).batch)
        assert {"ts", "k"} <= set(report.direct_columns)
        keys = batch.column("k")
        groups = [np.unique(keys[w : w + 8]).size for w in range(0, 64, 8)]
        assert sorted(sizes) == sorted([len(groups), np.unique(keys).size])
        last_ts = np.arange(len(groups)) * 8 + 107
        np.testing.assert_array_equal(
            report.result.columns["ts"], np.repeat(last_ts, groups)
        )

    def test_results_match_uncompressed(self):
        batch = make_batch(64, seed=3)
        outputs = {}
        for codec in ("identity", "ns", "bd", "dict", "rle", "bitmap", "nsv"):
            client, plan = make_client(StaticSelector(codec))
            server = Server(plan)
            report = server.process(client.compress_batch(batch).batch)
            outputs[codec] = report.result
        base = outputs.pop("identity")
        for codec, result in outputs.items():
            assert result.n_rows == base.n_rows, codec
            for name in base.columns:
                np.testing.assert_allclose(
                    result.columns[name], base.columns[name],
                    err_msg=f"{codec}:{name}",
                )
