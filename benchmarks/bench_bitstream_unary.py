"""Regression bench for ``BitWriter.write_unary`` on long zero runs.

The original implementation re-masked the whole accumulator for every
chunk of a zero run, making a single ``write_unary(n)`` quadratic in
``n`` (visible on Elias Gamma's unary prefixes for wide values).  The
fix flushes to byte alignment and extends the buffer directly, which is
O(n / 8).  This bench gates on long-run throughput — the linear and
quadratic implementations differ by ~400x at this run length — and
reports the x2 scaling factor for context.
"""

import time

from common import Table, run_bench
from repro.compression.bitstream import BitWriter


def _run_cost(count, repeats):
    best = float("inf")
    for _ in range(repeats):
        writer = BitWriter()
        writer.write(1, 3)  # start unaligned, the worst case for the fix
        t0 = time.perf_counter()
        writer.write_unary(count)
        best = min(best, time.perf_counter() - t0)
    return best


def collect(count=8_000_000, repeats=5):
    # both run lengths sit above the allocator's mmap threshold (the
    # zero-block for count/2 is already ~500 KB), so the ratio measures
    # the algorithm, not a page-faulting cliff between the two sizes
    small_s = _run_cost(count // 2, repeats)
    large_s = _run_cost(count, repeats)
    return {
        "count": count,
        "small_s": small_s,
        "large_s": large_s,
        "bits_per_s": count / large_s,
        "scaling": large_s / small_s,  # ~2 linear, ~4 quadratic
    }


def report(result):
    table = Table(
        ["run length (bits)", "time", "bits/s", "x2 scaling factor"],
        title="BitWriter.write_unary long-run cost",
    )
    table.add(
        f"{result['count']:,}",
        f"{result['large_s'] * 1e3:.2f} ms",
        f"{result['bits_per_s']:,.0f}",
        f"{result['scaling']:.2f}",
    )
    note = (
        "scaling is time(n) / time(n/2): ideally ~2 for the linear "
        "buffer-extend implementation vs ~4 for the quadratic accumulator "
        "re-masking it replaced, but in practice dominated by whether the "
        "zero-block allocation hits a warm malloc arena — informational "
        "only; the gate is the throughput floor."
    )
    return [table.render(), note]


def check(result):
    # The quadratic implementation re-masked the accumulator per 32-bit
    # chunk: ~30M bits/s at this run length.  The linear rewrite
    # sustains multiple G bits/s, so the floor leaves orders of
    # magnitude of headroom for slow CI machines while still failing
    # sharply on a quadratic regression.  The 2-point scaling ratio is
    # reported but not asserted: it measures the allocator (arena reuse
    # vs fresh mmap for the zero blocks) as much as the algorithm.
    assert result["bits_per_s"] > 5e8, result["bits_per_s"]


def bench_bitstream_unary():
    run_bench("bitstream_unary", collect, report, check)
