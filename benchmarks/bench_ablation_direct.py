"""Ablation — query *without decompression* vs decompress-then-query.

Isolates the paper's third contribution: with identical codecs and
identical bytes on the wire, the only difference is whether the server
runs kernels on compressed codes directly or decompresses every column
first (the conventional design).

Substrate note (see EXPERIMENTS.md): in NumPy, fixed-width codes are
materialized as int64 arrays either way, so for trivially-decodable codecs
(NS, BD) the two paths do nearly identical work — the paper's byte-width
memory-traffic advantage needs native kernels.  The advantage that *does*
survive in Python is skipping genuinely expensive decodes: Elias Delta's
codeword inversion and Dictionary's value gather, exercised here by the
group-by queries Q2 and Q6 (grouping runs on codes directly).
"""

from common import Table, average, best_of, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.datasets import QUERIES

#: codecs whose decode is materially more expensive than code access
MODES = ("static:ed", "static:dict")
#: shown for honesty: trivially-decodable codecs gain ~nothing in NumPy
INFO_MODES = ("static:ns", "static:bd")
QUERY_NAMES = ("q2", "q6")


def _run(qname, mode, force_decode, batches, windows_per_batch):
    q = QUERIES[qname]
    engine = CompressStreamDB(
        q.catalog,
        q.text(slide=q.window),
        EngineConfig(
            mode=mode,
            bandwidth_mbps=500,
            force_decode=force_decode,
        ),
    )
    src = q.make_source(batch_size=q.window * windows_per_batch, batches=batches)
    return engine.run(src)


def collect(batches=4, windows_per_batch=20):
    pairs = [(qname, mode) for qname in QUERY_NAMES for mode in MODES + INFO_MODES]
    best = best_of(
        [(qname, mode, decode) for qname, mode in pairs for decode in (False, True)],
        lambda cell: _run(*cell, batches, windows_per_batch),
        _server_ms,
    )
    return {
        (qname, mode): (best[(qname, mode, False)], best[(qname, mode, True)])
        for qname, mode in pairs
    }


def _server_ms(rep):
    seconds = rep.stage_seconds()
    return (seconds["decompress"] + seconds["query"]) / rep.profiler.batches * 1e3


def report(results):
    table = Table(
        [
            "Query",
            "Method",
            "server ms direct",
            "server ms decode-first",
            "direct saves",
        ],
        title="Ablation -- direct processing vs decompress-then-query "
              "(server time = decompress + query, per batch)",
    )
    for (qname, mode), (direct, decoded) in results.items():
        d, f = _server_ms(direct), _server_ms(decoded)
        table.add(
            qname.upper(), mode, f"{d:.3f}", f"{f:.3f}", f"{(1 - d / f) * 100:.1f}%"
        )
    note = (
        "ED and DICT rows show the real direct-processing win (their "
        "decodes are expensive); NS/BD rows are informational -- NumPy "
        "materializes their codes as int64 either way, so the paper's "
        "byte-width scan advantage needs native kernels."
    )
    return [table.render(), note]


def _microbench_decode_vs_direct():
    """Isolated mechanism check: ED/DICT decode vs direct code access."""
    import time

    import numpy as np

    from repro.compression import get_codec

    def fastest_s(fn, repeats=5):
        fn()  # warm caches
        return min(
            (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(repeats)
        )

    rng = np.random.default_rng(3)
    values = rng.integers(0, 5000, size=1 << 19)
    out = {}
    for name in ("ed", "dict"):
        codec = get_codec(name)
        cc = codec.compress(values)
        direct_s = fastest_s(lambda: codec.direct_codes(cc))
        decode_s = fastest_s(lambda: codec.decompress(cc))
        out[name] = (direct_s, decode_s)
    return out


def check(results):
    for qname in QUERY_NAMES:
        for mode in MODES:
            direct, decoded = results[(qname, mode)]
            # identical wire bytes; the direct path decodes at most the
            # capability-miss columns (e.g. avg over non-affine ED), a
            # strict subset of decode-everything
            assert direct.profiler.bytes_sent == decoded.profiler.bytes_sent
            assert decoded.stage_seconds()["decompress"] > 0.0
            assert (
                direct.stage_seconds()["decompress"]
                < decoded.stage_seconds()["decompress"]
            )
    # end to end, skipping those decodes saves server time (decompress +
    # query per batch, averaged over the group-by queries)
    for mode in MODES:
        saving = average(
            [
                1 - _server_ms(direct) / _server_ms(decoded)
                for direct, decoded in (results[(q, mode)] for q in QUERY_NAMES)
            ]
        )
        assert saving > 0.0, (mode, saving)
    # the mechanism, isolated from group-by noise: accessing codes must be
    # clearly cheaper than decoding for the expensive-decode codecs
    micro = _microbench_decode_vs_direct()
    # ED codeword inversion is far costlier than reading codes; DICT's
    # dictionary gather adds a smaller but consistent cost
    thresholds = {"ed": 2.0, "dict": 1.05}
    for name, (direct_s, decode_s) in micro.items():
        assert decode_s > thresholds[name] * direct_s, (
            f"{name}: decode {decode_s:.4f}s vs direct {direct_s:.4f}s"
        )


def bench_ablation_direct():
    run_bench("ablation_direct", collect, report, check)
