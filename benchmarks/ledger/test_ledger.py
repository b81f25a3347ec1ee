"""Self-test of the ledger at ``--smoke`` geometry.

Run as ``pytest benchmarks/ledger -q`` (outside the tier-1 ``testpaths``).
It holds ``BENCHMARK.json`` to the declared tables, every workload to the
names it must emit, and the tracer to its own arithmetic.
"""

import json
import re
from pathlib import Path

import metrics
import pytest
import run
import spans

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 13


@pytest.fixture(scope="module")
def measure(tmp_path_factory):
    module, _ = run.load_measure()
    saved = module.TRACE_DIR
    module.TRACE_DIR = tmp_path_factory.mktemp("traces")
    yield module
    module.TRACE_DIR = saved


@pytest.fixture(scope="module")
def smoke_results(measure):
    """Every workload once untraced and twice traced, one seed."""
    results = {}
    for name in metrics.WORKLOADS:
        results[name] = {
            "end_to_end": measure.run_workload(name, SEED, 0.0, False, True, 0.1),
            "per_layer": measure.run_workload(name, SEED, 0.0, True, True, 0.1),
            "again": measure.run_workload(name, SEED, 0.0, True, True, 0.1),
        }
    return results


def test_manifest_is_the_declared_tables():
    assert list(MANIFEST) == [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert MANIFEST["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert MANIFEST["workloads"] == [
        {"name": name, "why": why} for name, why in metrics.WORKLOADS.items()
    ]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_manifest_stays_inside_the_contract_limits():
    declared = [*MANIFEST["workloads"], *MANIFEST["end_to_end"], *MANIFEST["per_layer"]]
    names = [entry["name"] for entry in declared]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    for entry in MANIFEST["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 2 <= len(MANIFEST["workloads"]) <= 8 and len(MANIFEST["per_layer"]) <= 128


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_every_declared_metric_is_emitted_and_nothing_else(smoke_results, workload):
    for kind, declared in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.PER_LAYER),
    ):
        result = smoke_results[workload][kind]
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m.name: m.unit for m in declared
        }
        for name, emitted in result["metrics"].items():
            assert isinstance(emitted["value"], (int, float)), name
    for name, emitted in smoke_results[workload]["end_to_end"]["metrics"].items():
        assert emitted["value"] > 0, name


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_exact_counts_repeat_under_one_seed(smoke_results, workload):
    first = smoke_results[workload]["per_layer"]["metrics"]
    again = smoke_results[workload]["again"]["metrics"]
    for layer in metrics.PER_LAYER:
        if layer.exact:
            assert first[layer.name]["value"] == again[layer.name]["value"], layer.name


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_codec_decisions_and_wire_bytes_repeat(measure, workload):
    load = measure.workloads.WORKLOADS[workload]
    passes = [load.run_pass(load.prepare(2, True)) for _ in range(2)]
    assert passes[0].decisions == passes[1].decisions
    assert any(passes[0].decisions.values())
    assert passes[0].bytes_sent == passes[1].bytes_sent
    assert passes[0].counts == passes[1].counts


def _traced_pass(measure, workload, targets=spans.TARGETS):
    load = measure.workloads.WORKLOADS[workload]
    state = load.prepare(0, True)
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        with tracer.root():
            result = load.run_pass(state)
    finally:
        tracer.uninstall()
    result.counts.update(tracer.take_counts())
    return tracer, result


@pytest.mark.parametrize("workload", ["dynamic_filter", "join_distinct", "serve_fleet"])
def test_span_self_times_sum_to_the_root_span(measure, workload):
    tracer, _ = _traced_pass(measure, workload)
    totals = spans.totals_by_pass(tracer.spans)[0]
    assert len(tracer.spans) > 50 and not tracer.unresolved
    assert sum(totals.self_s.values()) == pytest.approx(totals.root_s, rel=0.01)
    assert all(own >= -1e-9 for own in spans.self_times(tracer.spans))


def test_tracer_restores_what_it_wrapped(measure):
    from repro.core.client import Client

    before = Client.compress_batch
    tracer = spans.Tracer()
    tracer.install()
    assert Client.compress_batch is not before
    tracer.uninstall()
    assert Client.compress_batch is before


def test_unresolvable_target_yields_null_not_a_crash(measure, capsys):
    gone = spans.Target("sql.plan", "repro.sql.planner", "Planner.renamed_away")
    tracer, result = _traced_pass(measure, "agg_tumbling", spans.TARGETS + (gone,))
    assert tracer.unresolved == ["sql.plan"]
    assert "does not resolve" in capsys.readouterr().err
    totals = spans.totals_by_pass(tracer.spans)[0]
    layers = measure.pass_layers(totals, result, tracer.unresolved)
    assert layers["sql.plan_s"] is None and layers["sql.plans"] is None
    assert layers["pipeline.run_s"] > 0


def test_chrome_trace_holds_one_pass(measure, tmp_path):
    tracer, _ = _traced_pass(measure, "agg_tumbling")
    path = tmp_path / "trace.json"
    written = spans.write_chrome_trace(tracer.spans, 0, path)
    events = json.loads(path.read_text())["traceEvents"]
    assert written == len(events) == len(tracer.spans)
    assert events[0]["name"] == spans.ROOT_SPAN and events[0]["ph"] == "X"
    assert {"span", "parent", "pass", "batch", "self_us"} <= set(events[1]["args"])


def test_agree_flags_a_breach_and_a_changed_count(smoke_results, tmp_path, capsys):
    same = {"seed": SEED, "workloads": smoke_results}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(same))
    b.write_text(json.dumps(same))
    assert run.agree(str(a), str(b)) == 0

    moved = json.loads(json.dumps(same))
    moved["workloads"]["agg_tumbling"]["end_to_end"]["metrics"]["cpu_tuples_per_s"][
        "value"
    ] *= 0.7
    moved["workloads"]["serve_fleet"]["per_layer"]["metrics"]["serve.checkpoints"][
        "value"
    ] += 1
    b.write_text(json.dumps(moved))
    assert run.agree(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "BREACH" in out and "COUNT DIFFERS" in out and "2 breach(es)" in out
