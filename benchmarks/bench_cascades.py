"""Cascades — composed-codec ratios plus the morph serving win.

Two halves, one bench:

* **Ratio table** (Table-IV style): each cascade family compresses the
  column shape it was composed for, next to its own stage codecs run
  alone.  The shapes are seeded and deterministic, so the gated ratios
  are machine-independent: ``dict+rle`` must collapse what ``dict``
  alone cannot, ``delta+ns`` must narrow a drifting counter that defeats
  plain ``ns``, ``bd+nsv`` must shrug off the rare spikes that widen
  ``bd``'s fixed width, and ``dict+bitmap`` must stay within a hair of
  its stage codecs while adding the bit-plane serving capability.

* **Morph legs**: a ``static:rle`` engine answers an equality-only OR
  filter over a runny small-domain column, once with the optimizer off
  (runs served as runs) and once with it on (the FormatMorph rule
  recompresses the predicate column to bit-planes mid-pipeline).  The
  escape hatch makes the comparison exact — identical codecs, identical
  bytes on the wire, identical answers — and the gate is the query-stage
  speedup, best-of-``cell_repeats`` per leg (noise can only depress a
  best-of-N, never inflate it).
"""

import numpy as np
from common import Table, best_of, run_bench
from repro import CompressStreamDB, EngineConfig
from repro.compression import get_codec
from repro.core.calibration import default_calibration
from repro.stats import ColumnStats
from repro.stream.schema import Field, Schema
from repro.stream.source import GeneratorSource

# ----- ratio half -------------------------------------------------------


def _shapes(n, seed=17):
    """Seeded column shapes, one per cascade family's home regime."""
    rng = np.random.default_rng(seed)
    resid = rng.integers(0, 200, n)
    spikes = rng.random(n) < 0.01
    return {
        # wide categorical values arriving in long runs: dict alone
        # still pays per-row codes, rle alone works but dict+rle must
        # collapse the runs the same way
        "runny_categorical": np.repeat(
            rng.integers(-1_000_000, 1_000_000, max(n // 85, 2)), 85
        )[:n].astype(np.int64),
        # small increments on a huge absolute level: ns sees 8-byte
        # values, the delta stage hands it 1-byte deltas
        "drifting_counter": (
            np.cumsum(rng.integers(0, 7, n)) + 5_000_000_000
        ).astype(np.int64),
        # tight cluster with rare large spikes: the outliers force bd's
        # fixed post-base width wide, nsv re-narrows per value
        "spiky_counter": (
            5_000_000_000 + np.where(spikes, resid + 100_000_000, resid)
        ).astype(np.int64),
        # a handful of arbitrarily wide category constants: bit-planes
        # over dense stage-1 codes
        "wide_categories": rng.choice(
            np.array(
                [-8_000_000_000, -5, 0, 123_456_789_012, 7, 999],
                dtype=np.int64,
            ),
            n,
        ),
    }


#: cascade -> (home shape, the single-stage codecs shown next to it)
RATIO_CASES = {
    "dict+rle": ("runny_categorical", ("dict", "rle")),
    "delta+ns": ("drifting_counter", ("ns", "ed")),
    "bd+nsv": ("spiky_counter", ("bd", "nsv")),
    "dict+bitmap": ("wide_categories", ("dict", "bitmap")),
}


def _ratios(n):
    shapes = _shapes(n)
    out = {}
    for cascade, (shape, singles) in RATIO_CASES.items():
        values = shapes[shape]
        stats = ColumnStats.from_values(values)
        raw = values.size * 8
        cell = {}
        for name in (cascade, *singles):
            codec = get_codec(name)
            if not codec.applicable(stats):
                cell[name] = None
                continue
            cell[name] = raw / codec.compress(values).nbytes
        out[cascade] = {"shape": shape, "ratios": cell}
    return out


# ----- morph half -------------------------------------------------------

MORPH_SCHEMA = Schema(
    [Field("ts", "int", 8), Field("value", "int", 8), Field("kind", "int", 8)]
)

#: seven equality literals: enough for the hint-only cost gate to prefer
#: planes (saving per literal 1 unit at size_c=8 vs a 4-unit conversion)
MORPH_SQL = (
    "select avg(value) as v from S [range 4096 slide 4096] where "
    + " or ".join(f"kind == {v}" for v in (1, 3, 5, 7, 9, 11, 13))
)

#: kind holds a state for ~4 rows: runny enough for rle, too choppy for
#: run-predicate serving to beat per-literal plane masks
MORPH_RUN_LENGTH = 4


def _morph_source(batch_size, batches, seed=3):
    rng = np.random.default_rng(seed)

    def gen(index):
        return {
            "ts": index * batch_size + np.arange(batch_size, dtype=np.int64),
            "value": np.repeat(rng.integers(0, 500, batch_size // 8), 8),
            "kind": np.repeat(
                rng.integers(0, 16, batch_size // MORPH_RUN_LENGTH),
                MORPH_RUN_LENGTH,
            ).astype(np.int64),
        }

    return GeneratorSource(MORPH_SCHEMA, gen, limit=batches)


def _morph_engine(optimize):
    return CompressStreamDB(
        {"S": MORPH_SCHEMA},
        MORPH_SQL,
        EngineConfig(
            mode="static:rle",
            bandwidth_mbps=500,
            calibration=default_calibration(),
            optimize=optimize,
        ),
    )


def collect(n=2048, batches=4, windows_per_batch=16, cell_repeats=4):
    batch_size = 4096 * windows_per_batch

    def leg(optimize):
        engine = _morph_engine(optimize)
        rep = engine.run(_morph_source(batch_size, batches), collect_outputs=True)
        info = getattr(engine._base_plan, "opt", None)
        return rep.stage_seconds()["query"], rep, info

    legs = best_of((False, True), leg, lambda result: result[0], cell_repeats)
    return {"ratios": _ratios(n), "legs": legs}


def report(result):
    table = Table(
        ["Cascade", "Shape", "cascade x", "stage-1 alone x", "stage-2 alone x"],
        title="Cascaded families vs their single stages "
        "(transmitted ratio, seeded shapes)",
    )
    for cascade, cell in result["ratios"].items():
        ratios = cell["ratios"]
        s1, s2 = RATIO_CASES[cascade][1]

        def fmt(name, ratios=ratios):
            value = ratios[name]
            return f"{value:.2f}" if value is not None else "n/a"

        table.add(cascade, cell["shape"], fmt(cascade), fmt(s1), fmt(s2))

    (naive_s, naive_rep, _) = result["legs"][False]
    (morph_s, morph_rep, info) = result["legs"][True]
    morph_table = Table(
        ["Leg", "query ms/batch", "throughput tup/s", "rules fired"],
        title="Morph serving -- equality-OR filter on a runny "
        "small-domain column (static:rle)",
    )
    batches = naive_rep.profiler.batches
    morph_table.add(
        "morph off (optimize=False)",
        f"{naive_s / batches * 1e3:.3f}",
        f"{naive_rep.throughput:,.0f}",
        "-",
    )
    morph_table.add(
        "morph on",
        f"{morph_s / batches * 1e3:.3f}",
        f"{morph_rep.throughput:,.0f}",
        ", ".join(info.rules_fired) if info else "-",
    )
    lines = [table.render(), morph_table.render()]
    if info:
        morphs = ", ".join(
            f"{m.column}: {m.from_codec} -> {m.to_codec}" for m in info.morphs
        )
        lines.append(
            f"query-stage speedup {naive_s / morph_s:.2f}x; morphs: {morphs}"
        )
    return lines


def check(result):
    ratios = {name: cell["ratios"] for name, cell in result["ratios"].items()}
    # every cascade must beat the raw int64 stream on its home shape
    for cascade, cell in ratios.items():
        assert cell[cascade] is not None and cell[cascade] > 1.0, (cascade, cell)
    # the composed-family wins are data-determined, so they gate hard:
    # each cascade must clearly beat the stage its composition rescues
    assert ratios["dict+rle"]["dict+rle"] > 2 * ratios["dict+rle"]["dict"]
    assert ratios["delta+ns"]["delta+ns"] > 2 * ratios["delta+ns"]["ns"]
    assert ratios["bd+nsv"]["bd+nsv"] > 2 * ratios["bd+nsv"]["bd"]
    assert ratios["bd+nsv"]["bd+nsv"] > 2 * ratios["bd+nsv"]["nsv"]
    # dict+bitmap buys the plane capability, not bytes: parity gate
    db = ratios["dict+bitmap"]
    assert db["dict+bitmap"] > 0.9 * max(db["dict"], db["bitmap"])

    (naive_s, naive_rep, _) = result["legs"][False]
    (morph_s, morph_rep, info) = result["legs"][True]
    # the morph rule must actually have rewritten the plan
    assert info is not None and not info.fallback, info
    assert "morph" in info.rules_fired, info.rules_fired
    assert any(
        m.column == "kind" and m.to_codec == "bitmap" for m in info.morphs
    ), info.morphs
    assert info.estimated_cost < info.baseline_cost, info
    # the escape hatch keeps the comparison exact: same bytes, same rows
    assert naive_rep.profiler.bytes_sent == morph_rep.profiler.bytes_sent
    a, b = naive_rep.outputs, morph_rep.outputs
    assert a is not None and b is not None
    assert a.n_rows == b.n_rows and sorted(a.columns) == sorted(b.columns)
    for name in a.columns:
        assert np.allclose(a.columns[name], b.columns[name]), name
    # the satellite gate: serving planes beats serving runs
    assert morph_s < naive_s, (morph_s, naive_s)


def bench_cascades():
    run_bench("cascade_families", collect, report, check)
