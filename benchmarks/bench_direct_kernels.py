"""Direct-on-compressed operator kernels vs decompress-then-process.

Times the structural serving paths added for β = 1 codecs — RLE
filter/aggregate at run granularity, Bitmap/PLWAH equality predicates on
a single unpacked plane — against decompressing the column first and
running the same operator on expanded values.  The check locks in >= 3x
on every path.
"""

import time

import numpy as np

from common import Table, run_bench
from repro.compression import get_codec
from repro.operators.aggregation import window_aggregate
from repro.operators.base import ExecColumn, decoded_column
from repro.operators.selection import compare_to_literal


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def collect(n=400_000, run_length=50, kindnum=64, repeats=3):
    rng = np.random.default_rng(11)
    runs_col = np.repeat(
        rng.integers(0, 40, max(n // run_length, 1)).astype(np.int64), run_length
    )[:n]
    cat_col = rng.integers(0, kindnum, n).astype(np.int64)
    starts = np.arange(0, n - 4096, 2048, dtype=np.int64)
    ends = starts + 4096

    rle = get_codec("rle")
    rle_cc = rle.compress(runs_col)

    def rle_direct():
        col = ExecColumn("v", runs=rle.run_view(rle_cc))
        compare_to_literal(col, ">=", 20)
        window_aggregate(col, starts, ends, "sum")
        window_aggregate(col, starts, ends, "max")

    def rle_decode():
        col = decoded_column("v", rle.decompress(rle_cc))
        compare_to_literal(col, ">=", 20)
        window_aggregate(col, starts, ends, "sum")
        window_aggregate(col, starts, ends, "max")

    rows = {
        "rle_filter_agg": {
            "tuples": n,
            "direct_s": _best_of(rle_direct, repeats),
            "decode_s": _best_of(rle_decode, repeats),
        }
    }

    for codec_name in ("bitmap", "plwah"):
        codec = get_codec(codec_name)
        cc = codec.compress(cat_col)

        def plane_direct(codec=codec, cc=cc):
            col = ExecColumn("k", planes=codec.plane_view(cc))
            compare_to_literal(col, "==", 7)

        def plane_decode(codec=codec, cc=cc):
            col = decoded_column("k", codec.decompress(cc))
            compare_to_literal(col, "==", 7)

        rows[f"{codec_name}_plane_filter"] = {
            "tuples": n,
            "direct_s": _best_of(plane_direct, repeats),
            "decode_s": _best_of(plane_decode, repeats),
        }

    for row in rows.values():
        row["speedup"] = row["decode_s"] / row["direct_s"]
    return rows


def report(rows):
    table = Table(
        ["path", "decode tuples/s", "direct tuples/s", "speedup"],
        title="Direct-on-compressed kernels vs decompress-then-process",
    )
    for name, row in rows.items():
        table.add(
            name,
            f"{row['tuples'] / row['decode_s']:,.0f}",
            f"{row['tuples'] / row['direct_s']:,.0f}",
            f"{row['speedup']:.1f}x",
        )
    note = (
        "direct = run-granularity filter/aggregate (RLE) and single-plane "
        "equality masks (Bitmap/PLWAH); decode = decompress the column, "
        "then run the identical operator on expanded values."
    )
    return [table.render(), note]


#: every structural path must beat decompress-then-process by this much
FLOOR = 3.0


def check(rows):
    for name, row in rows.items():
        assert row["speedup"] >= FLOOR, (name, row["speedup"])


def bench_direct_kernels():
    run_bench("direct_kernels", collect, report, check)
