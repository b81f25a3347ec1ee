"""Sec. II-B motivation — heavyweight compression does not fit streams.

Paper claims: (1) with Gzip, compression takes ~90.5 % of total stream
processing time while transmission drops below 10 %; (2) for methods that
must decompress before querying, decompression overhead relative to query
execution ranges from 2.09x to 31.37x for heavyweight schemes, while the
lightweight methods' decompression stays a negligible share (<1 % of total
in Fig. 8).
"""

from common import Table, run_bench, run_query


def collect(batches=3, windows_per_batch=20):
    return {
        mode: run_query(
            "q1",
            f"static:{mode}",
            bandwidth_mbps=500,
            batches=batches,
            windows_per_batch=windows_per_batch,
        )
        for mode in ("gzip", "ns", "nsv")
    }


def report(reports):
    table = Table(
        [
            "Method",
            "compress %",
            "trans %",
            "decompress %",
            "query %",
            "decompress/query",
        ],
        title="Sec. II-B -- heavyweight vs lightweight compression "
              "(Smart Grid, Q1, 500 Mbps)",
    )
    for name, rep in reports.items():
        b = rep.breakdown()
        s = rep.stage_seconds()
        ratio = s["decompress"] / s["query"] if s["query"] else 0.0
        table.add(
            name.upper(),
            f"{b['compress'] * 100:.1f}%",
            f"{b['trans'] * 100:.1f}%",
            f"{b['decompress'] * 100:.1f}%",
            f"{b['query'] * 100:.1f}%",
            f"{ratio:.2f}x",
        )
    note = (
        "Paper: Gzip spends 90.5% of total time compressing; heavyweight "
        "decompression costs 2.09x-31.37x the query time. Lightweight NS "
        "needs no decompression at all; NSV decompression stays a minor "
        "share of the total."
    )
    return [table.render(), note]


def check(reports):
    gzip_b = reports["gzip"].breakdown()
    ns_b = reports["ns"].breakdown()
    # gzip: compression dominates and dwarfs its transmission share
    assert gzip_b["compress"] > 0.5
    assert gzip_b["compress"] > 4 * gzip_b["trans"]
    # lightweight NS spends almost nothing compressing
    assert ns_b["compress"] < 0.35
    # gzip decompression is expensive relative to the query
    s = reports["gzip"].stage_seconds()
    assert s["decompress"] / s["query"] > 0.2


def bench_motivation_gzip():
    run_bench("motivation_gzip", collect, report, check)
