"""Golden snapshots of EXPLAIN renderings — Q1-Q6 plus one per rule.

Each case optimizes a fixed (catalog, query, statistics) triple and
compares :func:`repro.optimizer.render_text` against a committed golden
file: the rendering is structural (no timings, no float costs), so a
golden changes exactly when a plan shape or an optimizer decision
changes.  Re-bless intentional changes with::

    pytest tests/test_explain_golden.py --write-golden

The per-rule cases double as the acceptance witness that at least three
distinct rules fire across the corpus.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets import QUERIES
from repro.optimizer import plan_for_engine, render_text, stats_from_columns
from repro.stream.schema import Field, Schema

GOLDEN_DIR = Path(__file__).parent / "golden" / "explain"

SCHEMA = Schema(
    [
        Field("ts", "int", 8),
        Field("value", "int", 4),
        Field("kind", "int", 2),
        Field("payload", "int", 8),
    ]
)
CATALOG = {"S": SCHEMA}

#: deterministic per-column samples for the stats-dependent rules;
#: ``payload`` is runny and small-domain — the morph rule's target shape
STATS_COLUMNS = {
    "value": np.arange(100, dtype=np.int64),
    "kind": np.arange(1000, dtype=np.int64),
    "payload": np.tile(np.repeat(np.arange(12, dtype=np.int64), 4), 8),
}


def _render(catalog, sql, codec_hint="", with_stats=False):
    stats = stats_from_columns(SCHEMA, STATS_COLUMNS) if with_stats else None
    result = plan_for_engine(catalog, sql, codec_hint=codec_hint, stats=stats)
    return render_text(result.root, result.info) + "\n", result.info


#: name -> (catalog factory, sql factory, codec hint, bind stats?)
CASES = {
    **{
        name: (lambda q=q: q.catalog, lambda q=q: q.text(), "", False)
        for name, q in QUERIES.items()
    },
    # one query per rewrite rule, on a catalog with spare columns
    "rule_prune": (
        lambda: CATALOG,
        lambda: "select avg(value) as a from S [range 64 slide 64]",
        "",
        False,
    ),
    "rule_pushdown": (
        lambda: CATALOG,
        lambda: "select value from S [range unbounded] where value < 10",
        "",
        False,
    ),
    "rule_reorder": (
        lambda: CATALOG,
        lambda: (
            "select value from S [range unbounded] "
            "where value < 90 and kind == 2"
        ),
        "",
        True,
    ),
    "rule_fusion": (
        lambda: CATALOG,
        lambda: (
            "select avg(value) as a from S [range 64 slide 64] "
            "where value < 50"
        ),
        "rle",
        False,
    ),
    "rule_cse": (
        lambda: CATALOG,
        lambda: (
            "select value from S [range unbounded] "
            "where value < 10 and kind == 1 or value < 10 and kind == 2"
        ),
        "",
        False,
    ),
    "rule_morph": (
        lambda: CATALOG,
        lambda: (
            "select value from S [range unbounded] "
            "where payload == 1 or payload == 3 "
            "or payload == 5 or payload == 7"
        ),
        "rle",
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_explain_matches_golden(name, request):
    catalog, sql, codec_hint, with_stats = CASES[name]
    text, _info = _render(
        catalog(), sql(), codec_hint=codec_hint, with_stats=with_stats
    )
    path = GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--write-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden {path}; bless with pytest --write-golden"
    )
    assert text == path.read_text(), (
        f"EXPLAIN for {name} diverged from {path}; if the plan change is "
        "intentional, re-bless with pytest --write-golden"
    )


def test_renderings_are_deterministic():
    for name in ("q1", "rule_fusion", "rule_reorder"):
        catalog, sql, codec_hint, with_stats = CASES[name]
        first, _ = _render(catalog(), sql(), codec_hint, with_stats)
        second, _ = _render(catalog(), sql(), codec_hint, with_stats)
        assert first == second, name


def test_at_least_three_distinct_rules_fire_across_the_corpus():
    fired = set()
    for name, (catalog, sql, codec_hint, with_stats) in CASES.items():
        _, info = _render(catalog(), sql(), codec_hint, with_stats)
        fired |= set(info.rules_fired)
    assert len(fired) >= 3, fired


@pytest.mark.parametrize(
    "name, rule",
    [
        ("rule_prune", "prune"),
        ("rule_pushdown", "pushdown"),
        ("rule_reorder", "reorder"),
        ("rule_fusion", "fusion"),
        ("rule_cse", "cse"),
        ("rule_morph", "morph"),
    ],
)
def test_each_rule_case_fires_its_rule(name, rule):
    catalog, sql, codec_hint, with_stats = CASES[name]
    _, info = _render(catalog(), sql(), codec_hint, with_stats)
    assert rule in info.rules_fired, (rule, info.rules_fired)
