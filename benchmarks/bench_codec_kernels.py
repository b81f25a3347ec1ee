"""Vectorized codec kernels vs their scalar references.

Times the hot encode/decode paths in both dispatch modes of
:mod:`repro.compression.kernels` — the numpy batch kernels (production)
and the original per-value loops (``scalar_reference_mode``, the
correctness oracle) — and reports the speedups.  The check locks in the
rewrite: the batch kernels must beat the scalar loops by >= 3x on the
decode paths (>= 2x for Elias Delta, whose pointer-doubling decode
sits nearer the scalar loop and whose scalar timing is noisier), and on
the one-pass BD and DICT packers (dense and sort+lookup-table spans).
"""

import time

import numpy as np

from common import Table, run_bench
from repro.compression import kernels
from repro.compression.kernels import scalar_reference_mode


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(fn, repeats):
    vec_s = _best_of(fn, repeats)
    with scalar_reference_mode():
        ref_s = _best_of(fn, repeats)
    return vec_s, ref_s


def collect(n=100_000, repeats=3):
    rng = np.random.default_rng(7)
    values = rng.integers(1, 1_000_000, n).astype(np.int64)
    gamma_bytes = kernels.gamma_stream_encode(values)
    delta_bytes = kernels.delta_stream_encode(values)
    bits = rng.random(n * 4) < 0.01
    words = kernels.plwah_encode(bits)
    signed = rng.integers(-(2**20), 2**20, n).astype(np.int64)
    desc, data = kernels.nsv_pack(signed, True)
    # dictionary spans on both sides of the dense rule, both under the
    # lookup-table budget: a presence scatter vs a sort finds the codes
    dense = rng.integers(0, 2 * n, n).astype(np.int64)
    sparse = rng.integers(0, 30 * n, n).astype(np.int64)

    cases = {
        "gamma_encode": (n, lambda: kernels.gamma_stream_encode(values)),
        "gamma_decode": (n, lambda: kernels.gamma_stream_decode(gamma_bytes, n)),
        "delta_encode": (n, lambda: kernels.delta_stream_encode(values)),
        "delta_decode": (n, lambda: kernels.delta_stream_decode(delta_bytes, n)),
        "plwah_encode": (bits.size, lambda: kernels.plwah_encode(bits)),
        "plwah_decode": (bits.size, lambda: kernels.plwah_decode(words, bits.size)),
        "nsv_pack": (n, lambda: kernels.nsv_pack(signed, True)),
        "nsv_unpack": (n, lambda: kernels.nsv_unpack(desc, data, n, True)),
        "bd_pack": (n, lambda: kernels.bd_pack(values)),
        "dict_pack_dense": (n, lambda: kernels.dict_pack(dense)),
        "dict_pack_sort": (n, lambda: kernels.dict_pack(sparse)),
    }
    rows = {}
    for name, (tuples, fn) in cases.items():
        vec_s, ref_s = _measure(fn, repeats)
        rows[name] = {
            "tuples": tuples,
            "vector_s": vec_s,
            "scalar_s": ref_s,
            "speedup": ref_s / vec_s,
        }
    return rows


def report(rows):
    table = Table(
        ["kernel", "scalar tuples/s", "vectorized tuples/s", "speedup"],
        title="Vectorized batch kernels vs scalar references",
    )
    for name, row in rows.items():
        table.add(
            name,
            f"{row['tuples'] / row['scalar_s']:,.0f}",
            f"{row['tuples'] / row['vector_s']:,.0f}",
            f"{row['speedup']:.1f}x",
        )
    note = (
        "scalar = the per-value BitWriter/BitReader and run-loop oracles in "
        "repro.compression.scalar_ref; vectorized = the numpy bit-slicing "
        "kernels that replaced them on the hot path."
    )
    return [table.render(), note]


# floors sit well under the observed medians (gamma ~8x, plwah >100x,
# nsv ~6x, delta ~3x) so scalar-loop timing noise cannot fail a healthy
# build
FLOORS = {
    "gamma_decode": 3.0,
    "delta_decode": 2.0,
    "plwah_decode": 3.0,
    "nsv_unpack": 3.0,
    "bd_pack": 3.0,
    "dict_pack_dense": 3.0,
    "dict_pack_sort": 3.0,
}


def check(rows):
    for name, floor in FLOORS.items():
        assert rows[name]["speedup"] >= floor, (name, rows[name]["speedup"])


def bench_codec_kernels():
    run_bench("codec_kernels", collect, report, check)
