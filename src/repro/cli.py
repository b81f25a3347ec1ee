"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      execute one of the paper's queries (Q1-Q6) end-to-end in any
             processing mode and print the run report;
``codecs``   list the registered compression algorithms and their
             cost-model classification (α, β, capabilities);
``ratios``   show per-codec compression ratios on one column of a dataset
             (the Sec. V estimators next to achieved ratios);
``explain``  parse + plan + optimize a streaming SQL script (raw SQL, a
             paper query, or a workloads corpus entry) and print the plan
             shape, per-column requirements, the optimized logical plan
             with the rules that fired, and the plan digest; ``--json``
             emits the stable machine-readable rendering and
             ``--no-optimize`` shows the naive plan;
``faults``   run a query over an unreliable link (seeded drops/bit-flips/
             truncations/duplicates/stalls) with the recovery protocol and
             print the fault report; ``--verify`` checks the outputs are
             bit-identical to a clean-link run;
``oracle``   differential fuzzing campaign: seeded random queries run
             several ways (uncompressed baseline, decompress-then-query,
             direct-on-compressed per pool codec, scalar-reference
             kernels, and the optimizer's rewritten plan), results
             compared;
             divergences are shrunk to repro files replayable with
             ``--replay``; ``--chaos`` instead runs seeded multi-tenant
             fleets through the serving supervisor under injected faults,
             poison batches and crash/restart cycles and checks every
             delivered result against a clean run (artifacts include
             checkpoint dumps);
``serve``    run a multi-tenant fleet under the resilient serving layer
             (supervision, admission control, backpressure, checkpointed
             recovery) and print per-tenant health/delivery tables;
``workloads`` replay the synthetic trace corpus (Q1-Q6 plus the widened
             SQL surface) through the single-engine and supervised-fleet
             paths and check every result against the committed golden
             fixtures; ``--bless`` re-records fixtures from the baseline
             reference path; non-zero exit below a 100% pass rate;
``lint``     run the AST-based invariant analyzer (syntactic rules
             CSD002-CSD008: scalar parity, determinism, exception
             taxonomy, bench registration, supervised recovery,
             optimizer purity; and flow-sensitive rules CSD009-CSD012
             over the linked call graph: decode taint, wall-clock
             escape, taxonomy flow, checkpoint purity) over the repo;
             ``--graph dot|json``
             exports the call graph with per-edge taint annotations;
             exit 0 clean / 1 findings / 2 usage — the CI gate for the
             engine's internal contracts (see docs/static-analysis.md);
``bench``    run the registered benchmark suites through the unified
             harness (warmup, repeats, median/p95, tuples/s, one
             schema-versioned ``BENCH_<suite>.json`` per suite), or
             ``--compare baseline.json current.json`` to diff two result
             files — non-zero exit on a regression beyond tolerance (the
             CI perf gate; see docs/benchmarking.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .compression import all_codec_names, get_codec
from .core.engine import CompressStreamDB, EngineConfig
from .datasets import QUERIES
from .errors import ReproError
from .sql.plan import JoinPlan, PassthroughPlan, WindowAggPlan
from .stats import ColumnStats

_DATASET_MODULES = {
    "smart_grid": "repro.datasets.smart_grid",
    "linear_road": "repro.datasets.linear_road",
    "cluster": "repro.datasets.cluster_monitoring",
}


def _dataset_module(name: str):
    import importlib

    if name not in _DATASET_MODULES:
        raise ReproError(
            f"unknown dataset {name!r}; choose from {sorted(_DATASET_MODULES)}"
        )
    return importlib.import_module(_DATASET_MODULES[name])


# ----- commands -------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    q = QUERIES[args.query]
    slide = args.slide if args.slide else q.window
    engine = CompressStreamDB(
        q.catalog,
        q.text(slide=slide),
        EngineConfig(
            mode=args.mode,
            bandwidth_mbps=None if args.bandwidth == 0 else args.bandwidth,
            redecide_every=args.redecide_every,
        ),
    )
    source = q.make_source(
        batch_size=q.window * args.windows, batches=args.batches, seed=args.seed
    )
    report = engine.run(source, collect_outputs=args.show_rows > 0)
    print(f"query {args.query} | mode {args.mode} | {report.summary()}")
    print(f"codec per column: {report.final_choices}")
    breakdown = ", ".join(
        f"{stage} {frac * 100:.1f}%" for stage, frac in report.breakdown().items()
    )
    print(f"time breakdown: {breakdown}")
    if args.show_rows > 0 and report.outputs is not None:
        names = list(report.outputs.columns)
        print(" | ".join(names))
        for i in range(min(args.show_rows, report.outputs.n_rows)):
            print(" | ".join(str(report.outputs.columns[n][i]) for n in names))
    return 0


def cmd_codecs(_args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'lazy(α)':8s} {'decomp(β)':10s} capabilities")
    for name in all_codec_names():
        codec = get_codec(name)
        caps = ", ".join(sorted(codec.capabilities)) or "-"
        print(
            f"{name:10s} {str(codec.is_lazy):8s} "
            f"{str(codec.needs_decompression):10s} {caps}"
        )
    return 0


def cmd_ratios(args: argparse.Namespace) -> int:
    module = _dataset_module(args.dataset)
    columns = module.generate(args.n, seed=args.seed)
    if args.column not in columns:
        raise ReproError(
            f"dataset {args.dataset!r} has columns {sorted(columns)}"
        )
    from .stream.batch import Batch

    batch = Batch.from_values(module.SCHEMA, columns)
    values = batch.column(args.column)
    size_c = module.SCHEMA[args.column].size
    stats = ColumnStats.from_values(values, size_c=size_c)
    print(
        f"{args.dataset}.{args.column}: n={stats.n} kindnum={stats.kindnum} "
        f"range=[{stats.min_value}, {stats.max_value}] "
        f"avg_run={stats.avg_run_length:.2f}"
    )
    print(f"{'codec':10s} {'est r':>8s} {'wire r':>8s} {'achieved':>9s}")
    for name in all_codec_names():
        codec = get_codec(name)
        if not codec.applicable(stats):
            print(f"{name:10s} {'n/a':>8s}")
            continue
        cc = codec.compress(values)
        cc.source_size_c = size_c
        if name == "identity":
            # identity ships the field at its declared wire width
            cc.nbytes = values.size * size_c
        print(
            f"{name:10s} {codec.estimate_ratio(stats):8.2f} "
            f"{codec.estimate_transmitted_ratio(stats):8.2f} {cc.ratio:9.2f}"
        )
    return 0


_DATASET_STREAMS = {
    "smart_grid": "SmartGridStr",
    "linear_road": "PosSpeedStr",
    "cluster": "TaskEvents",
}


def _full_catalog():
    """Union catalog of every known dataset stream (for raw-SQL explain)."""
    return {
        stream: _dataset_module(dataset).SCHEMA
        for dataset, stream in _DATASET_STREAMS.items()
    }


def _resolve_query_config(name: str):
    """A query registry entry: the paper's Q1-Q6 or a workloads corpus
    query (both duck-type ``QueryConfig``: catalog/text/make_source)."""
    if name in QUERIES:
        return QUERIES[name]
    from .workloads.corpus import QUERIES as CORPUS

    if name in CORPUS:
        return CORPUS[name]
    raise ReproError(
        f"unknown query {name!r}; choose one of {sorted(QUERIES)} or a "
        f"workloads corpus entry ({', '.join(sorted(CORPUS))})"
    )


def cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .optimizer import (
        plan_for_engine,
        render_json,
        render_text,
        stats_from_columns,
    )

    text = args.sql_pos or args.sql
    cfg = None
    if not text:
        cfg = _resolve_query_config(args.query)
        text = cfg.text()
    if args.dataset:
        module = _dataset_module(args.dataset)
        catalog = {_DATASET_STREAMS[args.dataset]: module.SCHEMA}
    elif cfg is not None:
        catalog = dict(cfg.catalog)
    else:
        catalog = _full_catalog()
    stats = None
    if args.stats:
        if cfg is None:
            raise ReproError(
                "--stats needs a named --query (statistics are sampled "
                "from the query's own source)"
            )
        sample = next(iter(cfg.make_source(batch_size=2048, batches=1, seed=11)))
        stats = stats_from_columns(sample.schema, sample.columns)
    planned = plan_for_engine(
        catalog,
        text,
        optimize=not args.no_optimize,
        codec_hint=args.codec,
        stats=stats,
    )
    plan, root, opt_info = planned.plan, planned.root, planned.info

    if args.as_json:
        print(json.dumps(render_json(root, opt_info), indent=2, sort_keys=True))
        return 0

    kind = type(plan).__name__
    print(f"plan: {kind}")

    def window_text(w):
        if w.mode == "time":
            return (
                f"range {w.size} seconds slide {w.slide} on {w.time_column}"
            )
        return f"range {w.size} slide {w.slide}"

    if isinstance(plan, WindowAggPlan):
        print(f"  window: {window_text(plan.window)}")
        print(f"  group by: {list(plan.group_keys) or '-'}")
    elif isinstance(plan, JoinPlan):
        print(f"  window side: {window_text(plan.window)}")
        for side in plan.sides:
            kind_txt = "left outer" if side.outer else "inner"
            print(
                f"  {kind_txt} side {side.binding}: "
                f"by {side.window.partition_by} rows {side.window.rows}, "
                f"probe {side.probe_column} == {side.key_column}"
            )
    elif isinstance(plan, PassthroughPlan):
        print(f"  per-tuple projection; distinct={plan.distinct}")
    print(f"  outputs: {[o.name for o in plan.outputs]}")
    print("  per-column requirements:")
    for name, use in sorted(plan.profile.column_uses.items()):
        caps = ", ".join(sorted(use.caps)) or "-"
        values = " +values" if use.needs_values else ""
        print(f"    {name}: {caps}{values}")
    print()
    print("logical plan:")
    print(render_text(root, opt_info))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import numpy as np

    from .net.faults import FaultProfile
    from .net.transport import ReliabilityConfig
    from .reporting import fault_report_table

    q = QUERIES[args.query]
    profile = FaultProfile(
        drop_rate=args.drop,
        corrupt_rate=args.corrupt,
        truncate_rate=args.truncate,
        duplicate_rate=args.duplicate,
        stall_rate=args.stall,
        seed=args.fault_seed,
    )
    reliability = ReliabilityConfig(max_retries=args.max_retries)

    def build(fault_profile):
        return CompressStreamDB(
            q.catalog,
            q.text(slide=q.window),
            EngineConfig(
                mode=args.mode,
                bandwidth_mbps=None if args.bandwidth == 0 else args.bandwidth,
                fault_profile=fault_profile,
                reliability=reliability,
                # selection driven by the calibration table alone, so the
                # faulty and clean runs choose identical codecs
                profile_query=False,
            ),
        )

    def source():
        return q.make_source(
            batch_size=q.window * args.windows, batches=args.batches, seed=args.seed
        )

    report = build(profile).run(source(), collect_outputs=args.verify)
    print(f"query {args.query} | mode {args.mode} | {report.summary()}")
    print(
        f"delivered {report.delivered_tuples}/{report.tuples} tuples "
        f"(goodput {report.goodput:,.0f} tup/s)"
    )
    assert report.faults is not None
    print()
    print(fault_report_table(report.faults, title=f"Fault report ({profile!r})"))
    if not args.verify:
        return 0

    clean = build(None).run(source(), collect_outputs=True)
    if report.faults.quarantined:
        print(
            "\nverify: skipped — "
            f"{report.faults.quarantined} batch(es) were quarantined, "
            "outputs cannot match a clean run"
        )
        return 0
    for name in clean.outputs.columns:
        if not np.array_equal(
            clean.outputs.columns[name], report.outputs.columns[name]
        ):
            print(f"\nverify: FAILED — column {name!r} differs from clean run")
            return 1
    print("\nverify: OK — outputs bit-identical to a clean-link run")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .compression.registry import PAPER_POOL
    from .oracle import CampaignConfig, replay_file, run_campaign

    if args.chaos:
        return _cmd_oracle_chaos(args)

    if args.replay:
        outcome = replay_file(args.replay)
        print(f"replay {args.replay}: {outcome.case!r}")
        if outcome.mismatches:
            for m in outcome.mismatches:
                print(m)
            print(f"replay: DIVERGED ({len(outcome.mismatches)} mismatch(es))")
            return 1
        print("replay: OK — all paths agree")
        return 0

    codecs = (
        tuple(c.strip() for c in args.codecs.split(",") if c.strip())
        if args.codecs
        else PAPER_POOL
    )
    if args.cascades:
        from .compression.registry import CASCADE_POOL

        codecs = codecs + tuple(c for c in CASCADE_POOL if c not in codecs)
    config = CampaignConfig(
        cases=args.cases,
        seed=args.seed,
        codecs=codecs,
        shrink=not args.no_shrink,
        out_dir=args.out_dir,
        min_kinds=args.min_kinds,
        max_failures=args.max_failures,
        optimized=args.optimize,
    )

    every = max(1, args.cases // 10)

    def progress(done: int, total: int) -> None:
        if done % every == 0 or done == total:
            print(f"  {done}/{total} cases", flush=True)

    print(
        f"oracle campaign: {config.cases} cases, seed {config.seed}, "
        f"codecs {', '.join(config.codecs)}"
    )
    result = run_campaign(config, progress=progress)
    print()
    print(result.coverage.format_table())
    status = 0
    if result.mismatches:
        print(f"\n{len(result.mismatches)} mismatch(es) in {result.cases_run} cases:")
        for m in result.mismatches:
            print(m)
        for path in result.repro_paths:
            print(f"repro written: {path}")
        status = 1
    else:
        print(f"\nOK — {result.cases_run} cases, zero mismatches")
    short = result.undercovered()
    if short:
        print(
            f"coverage: FAILED — codecs below {config.min_kinds} operator "
            f"kinds: {short}"
        )
        status = 1
    elif config.min_kinds:
        print(
            f"coverage: OK — every codec exercised by >= {config.min_kinds} "
            "operator kinds"
        )
    return status


def _cmd_oracle_chaos(args: argparse.Namespace) -> int:
    """The ``oracle --chaos`` leg: differential campaign under faults."""
    from .oracle import ChaosConfig, run_chaos_campaign

    out_dir = args.out_dir if args.out_dir != "oracle-repros" else "chaos-artifacts"
    config = ChaosConfig(
        cases=args.cases,
        seed=args.seed,
        tenants=args.tenants,
        max_failures=args.max_failures,
        out_dir=out_dir,
    )

    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} chaos cases", flush=True)

    print(
        f"chaos campaign: {config.cases} cases x {config.tenants} tenants, "
        f"seed {config.seed} (supervisor + faults + poison batches)"
    )
    result = run_chaos_campaign(config, progress=progress, case_offset=args.case_offset)
    print(
        f"\ndelivered {result.batches_delivered} batches | "
        f"dead-lettered {result.batches_dead_lettered} | "
        f"shed {result.batches_shed} | "
        f"quarantined tenants {result.tenants_quarantined}"
    )
    if result.mismatches:
        print(f"\n{len(result.mismatches)} broken invariant(s):")
        for m in result.mismatches:
            print(m)
        for path in result.artifact_paths:
            print(f"artifact written: {path}")
        return 1
    print(
        f"OK — {result.cases_run} cases, every delivered result matches the "
        "clean run; all gaps accounted"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .net.faults import FaultProfile
    from .net.transport import ReliabilityConfig
    from .reporting import serve_report_table
    from .serve import (
        CheckpointStore,
        FileCheckpointStore,
        ServeSupervisor,
        TenantSpec,
    )

    queries = sorted(QUERIES)
    profile = (
        FaultProfile.lossy(args.loss, seed=args.fault_seed) if args.loss > 0 else None
    )
    reliability = (
        ReliabilityConfig(max_retries=args.max_retries) if profile else None
    )
    specs = [
        TenantSpec(
            tenant=f"t{i:03d}",
            query=queries[i % len(queries)],
            batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed + i,
            fault_profile=profile,
            reliability=reliability,
            checkpoint_every=args.checkpoint_every,
        )
        for i in range(args.tenants)
    ]
    store = (
        FileCheckpointStore(args.checkpoint_dir)
        if args.checkpoint_dir
        else CheckpointStore()
    )
    supervisor = ServeSupervisor(specs, store=store, resume=args.resume)
    report = supervisor.run(max_steps=args.max_steps or None)
    for label, value in report.summary_rows():
        print(f"{label:18s} {value}")
    print()
    print(serve_report_table(report))
    worst = report.health_counts()["QUARANTINED"]
    return 1 if worst == len(specs) else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import compare_files, default_bench_dir, discover, run_suites
    from .reporting import TextTable

    if args.compare:
        baseline_path, current_path = args.compare
        report = compare_files(
            baseline_path,
            current_path,
            tolerance=args.tolerance,
            gate_timings=not args.no_gate_timings,
        )
        if report.deltas:
            print(report.format_table())
        for line in report.summary_lines():
            print(line)
        return report.exit_code()

    bench_dir = args.bench_dir or default_bench_dir()
    if bench_dir is None:
        raise ReproError(
            "no benchmarks directory found; pass --bench-dir or set "
            "$REPRO_BENCH_DIR"
        )
    registry = discover(bench_dir)
    specs = registry.select(
        suite=args.suite or None, pattern=args.filter or None
    )

    if args.list:
        table = TextTable(
            ["name", "suite", "tolerance", "params"],
            title=f"Registered benchmarks ({bench_dir})",
        )
        for spec in specs:
            params = ", ".join(f"{k}={v}" for k, v in spec.run_params().items())
            table.add(spec.name, spec.suite, f"{spec.tolerance:.2f}", params or "-")
        print(table.render())
        return 0

    if not specs:
        raise ReproError(
            f"no benchmarks match suite={args.suite or '*'} "
            f"filter={args.filter or '*'}"
        )
    run_suites(
        specs,
        json_dir=args.json_dir,
        repeats=args.repeats,
        warmup=args.warmup,
        quick=args.quick,
        check=not args.no_check,
        write_tables=not args.no_tables,
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis import (
        ALL_RULES,
        default_root,
        run_analysis,
        write_baseline,
    )

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.rule_id} {cls.title}")
            print(f"    waiver tag: {cls.waiver_tag or '-'}")
            print(f"    {cls.rationale}")
        return 0

    root = args.root or default_root()
    report = run_analysis(
        root,
        rule_ids=args.rules,
        baseline_path=args.baseline or None,
        cache_path=args.cache or None,
        use_cache=not args.no_cache,
        build_graph=bool(args.graph),
    )
    if args.graph:
        assert report.graph is not None
        taints = report.edge_taints
        if args.graph == "dot":
            out = report.graph.to_dot(taints)
        else:
            out = json.dumps(report.graph.to_doc(taints), indent=2)
        if args.graph_out:
            with open(args.graph_out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
            print(f"wrote {args.graph_out}")
        else:
            print(out)
        return report.exit_code()
    if args.write_baseline:
        from .analysis.baseline import DEFAULT_BASELINE_NAME

        path = args.baseline or str(report.root / DEFAULT_BASELINE_NAME)
        write_baseline(path, report.findings)
        print(
            f"wrote {len(report.findings)} entr(y/ies) to {path}; "
            "fill in each 'reason' before committing"
        )
        return 0
    if args.as_json:
        print(json.dumps(report.to_doc(), indent=2))
    else:
        for line in report.format_lines():
            print(line)
    return report.exit_code()


def cmd_workloads(args: argparse.Namespace) -> int:
    import json

    from .errors import WorkloadError
    from .workloads import PATH_SINGLE, PATHS, replay

    paths = (PATH_SINGLE,) if args.no_fleet else PATHS
    try:
        report = replay(
            names=args.query or None,
            trace=args.trace,
            quick=args.quick,
            paths=paths,
            bless=args.bless,
        )
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in report.blessed:
        print(f"blessed {name}")
    for outcome in report.outcomes:
        status = "PASS" if outcome.ok else "FAIL"
        print(
            f"{status} {outcome.query:18s} [{outcome.path}] "
            f"rows {outcome.n_rows}"
        )
        if outcome.detail:
            print(f"     {outcome.detail}")
    print()
    for label, value in report.summary_rows():
        print(f"{label:12s} {value}")
    if args.as_json:
        with open(args.as_json, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"wrote {args.as_json}")
    return 0 if report.pass_rate == 1.0 else 1


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .core.calibration import calibrate

    table = calibrate(repeats=args.repeats)
    table.save(args.out)
    print(f"calibrated {len(table.timings)} codecs -> {args.out}")
    slowest = max(
        table.timings.items(), key=lambda item: item[1].compress_a
    )
    print(f"slowest compressor per element: {slowest[0]}")
    return 0


# ----- entry point -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CompressStreamDB (ICDE 2023) reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one of the paper's queries")
    run.add_argument("--query", choices=sorted(QUERIES), default="q1")
    run.add_argument("--mode", default="adaptive")
    run.add_argument(
        "--bandwidth", type=float, default=500.0, help="link Mbps; 0 = single node"
    )
    run.add_argument("--batches", type=int, default=4)
    run.add_argument("--windows", type=int, default=10, help="windows per batch")
    run.add_argument("--slide", type=int, default=0, help="window slide; 0 = tumbling")
    run.add_argument("--redecide-every", type=int, default=16)
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--show-rows", type=int, default=0)
    run.set_defaults(func=cmd_run)

    codecs = sub.add_parser("codecs", help="list compression algorithms")
    codecs.set_defaults(func=cmd_codecs)

    ratios = sub.add_parser("ratios", help="per-codec ratios on one column")
    ratios.add_argument("--dataset", choices=sorted(_DATASET_MODULES), required=True)
    ratios.add_argument("--column", required=True)
    ratios.add_argument("-n", type=int, default=8192)
    ratios.add_argument("--seed", type=int, default=1)
    ratios.set_defaults(func=cmd_ratios)

    explain = sub.add_parser(
        "explain", help="parse + plan + optimize a query, print the plan"
    )
    explain.add_argument(
        "sql_pos",
        nargs="?",
        default="",
        metavar="SQL",
        help="raw SQL (streams: SmartGridStr, PosSpeedStr, TaskEvents)",
    )
    explain.add_argument(
        "--dataset",
        choices=sorted(_DATASET_MODULES),
        default="",
        help="resolve raw SQL against this dataset's schema only",
    )
    explain.add_argument(
        "--query",
        default="q1",
        help="named query: q1-q6 or a workloads corpus entry",
    )
    explain.add_argument("--sql", default="", help="raw SQL overriding --query")
    explain.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="stable machine-readable plan rendering on stdout",
    )
    explain.add_argument(
        "--no-optimize",
        action="store_true",
        help="show the naive bound plan, skipping the rewrite rules",
    )
    explain.add_argument(
        "--stats",
        action="store_true",
        help="bind column statistics sampled from the query's own source "
        "(named --query only)",
    )
    explain.add_argument(
        "--codec",
        default="",
        help="codec hint, as in the engine's static:<codec> modes",
    )
    explain.set_defaults(func=cmd_explain)

    faults = sub.add_parser(
        "faults", help="run a query over an unreliable link and recover"
    )
    faults.add_argument("--query", choices=sorted(QUERIES), default="q1")
    faults.add_argument("--mode", default="adaptive")
    faults.add_argument(
        "--bandwidth", type=float, default=500.0, help="link Mbps; 0 = single node"
    )
    faults.add_argument("--drop", type=float, default=0.05)
    faults.add_argument("--corrupt", type=float, default=0.05)
    faults.add_argument("--truncate", type=float, default=0.0)
    faults.add_argument("--duplicate", type=float, default=0.0)
    faults.add_argument("--stall", type=float, default=0.0)
    faults.add_argument("--fault-seed", type=int, default=7)
    faults.add_argument("--max-retries", type=int, default=8)
    faults.add_argument("--batches", type=int, default=4)
    faults.add_argument("--windows", type=int, default=10, help="windows per batch")
    faults.add_argument("--seed", type=int, default=11)
    faults.add_argument(
        "--verify", action="store_true", help="check outputs match a clean-link run"
    )
    faults.set_defaults(func=cmd_faults)

    oracle = sub.add_parser(
        "oracle", help="differential fuzzing of direct-on-compressed execution"
    )
    oracle.add_argument(
        "--cases", type=int, default=100, help="number of generated cases"
    )
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument(
        "--codecs", default="", help="comma-separated codec names (default: paper pool)"
    )
    oracle.add_argument(
        "--cascades",
        action="store_true",
        help="extend the codec pool with the cascade families "
        "(dict+rle, delta+ns, bd+nsv, dict+bitmap)",
    )
    oracle.add_argument(
        "--no-shrink", action="store_true", help="write failing cases unminimized"
    )
    oracle.add_argument(
        "--out-dir",
        default="oracle-repros",
        help="directory for repro files (created on demand)",
    )
    oracle.add_argument(
        "--min-kinds",
        type=int,
        default=3,
        help="fail unless every codec is exercised by at "
        "least this many operator kinds (0 = off)",
    )
    oracle.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many diverging cases",
    )
    oracle.add_argument(
        "--replay", default="", help="re-run one repro file instead of a campaign"
    )
    oracle.add_argument(
        "--optimize",
        action="store_true",
        dest="optimize",
        default=True,
        help="run the optimized-plan leg on every case (default)",
    )
    oracle.add_argument(
        "--no-optimize",
        action="store_false",
        dest="optimize",
        help="skip the optimized-plan leg",
    )
    oracle.add_argument(
        "--chaos",
        action="store_true",
        help="run the serving-layer chaos campaign (faults + crashes + "
        "supervisor) instead of the codec oracle",
    )
    oracle.add_argument(
        "--case-offset",
        type=int,
        default=0,
        help="first chaos case id (for replaying a single failing case)",
    )
    oracle.add_argument(
        "--tenants", type=int, default=3, help="tenants per chaos case"
    )
    oracle.set_defaults(func=cmd_oracle)

    serve = sub.add_parser(
        "serve", help="run a multi-tenant fleet under the supervisor"
    )
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--batches", type=int, default=8)
    serve.add_argument("--batch-size", type=int, default=1024)
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument(
        "--loss", type=float, default=0.0, help="drop/corrupt rate on every link"
    )
    serve.add_argument("--fault-seed", type=int, default=7)
    serve.add_argument("--max-retries", type=int, default=8)
    serve.add_argument("--checkpoint-every", type=int, default=8)
    serve.add_argument(
        "--checkpoint-dir",
        default="",
        help="persist checkpoints to this directory (enables --resume)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resume tenants from checkpoints in --checkpoint-dir",
    )
    serve.add_argument(
        "--max-steps",
        type=int,
        default=0,
        help="stop after N supervisor steps (0 = run to completion)",
    )
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser(
        "bench", help="run benchmark suites / compare results (perf gate)"
    )
    bench.add_argument(
        "--suite",
        default="",
        help="run only this suite (paper, ablation, robustness, kernels)",
    )
    bench.add_argument(
        "--filter", default="", help="run only benchmarks whose name contains this"
    )
    bench.add_argument(
        "--repeats", type=int, default=1, help="measured repetitions per benchmark"
    )
    bench.add_argument(
        "--warmup", type=int, default=0, help="unmeasured warmup runs per benchmark"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small parameters for smoke runs; skips shape "
        "checks and table regeneration",
    )
    bench.add_argument(
        "--json-dir",
        default="bench-json",
        help="directory for BENCH_<suite>.json results",
    )
    bench.add_argument(
        "--bench-dir", default="", help="benchmarks directory (default: auto-detect)"
    )
    bench.add_argument(
        "--no-check",
        action="store_true",
        help="skip the per-benchmark shape assertions",
    )
    bench.add_argument(
        "--no-tables",
        action="store_true",
        help="do not rewrite benchmarks/results/*.txt",
    )
    bench.add_argument(
        "--list", action="store_true", help="list matching benchmarks and exit"
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        help="diff two BENCH_*.json files instead of running; "
        "exit 1 on regression beyond tolerance",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every benchmark's tolerance in --compare",
    )
    bench.add_argument(
        "--no-gate-timings",
        action="store_true",
        help="in --compare, treat absolute wall-clock metrics "
        "(median_s, tuples/s) as informational; use when "
        "baseline and current come from different machines",
    )
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint", help="run the AST invariant analyzer (the contracts gate)"
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        default=None,
        help="run only this rule id (repeatable; default: all)",
    )
    lint.add_argument(
        "--baseline",
        default="",
        help="baseline file (default <root>/lint-baseline.json)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable report on stdout",
    )
    lint.add_argument(
        "--root",
        default="",
        help="project root (default: auto-detect via pyproject.toml)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--graph",
        choices=("dot", "json"),
        default="",
        help="export the linked call graph (with per-edge taint "
        "annotations) instead of the findings report",
    )
    lint.add_argument(
        "--graph-out",
        default="",
        metavar="PATH",
        help="write the --graph export to a file instead of stdout",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the on-disk summary cache",
    )
    lint.add_argument(
        "--cache",
        default="",
        metavar="PATH",
        help="summary-cache file (default <root>/.lint-cache.json)",
    )
    lint.set_defaults(func=cmd_lint)

    workloads = sub.add_parser(
        "workloads",
        help="replay the trace corpus against golden fixtures",
    )
    workloads.add_argument(
        "--query",
        action="append",
        default=[],
        help="restrict to this corpus query (repeatable)",
    )
    workloads.add_argument(
        "--trace", default="", help="restrict to one trace's queries"
    )
    workloads.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset: one query per trace plus q1",
    )
    workloads.add_argument(
        "--bless",
        action="store_true",
        help="re-record golden fixtures from the baseline reference path",
    )
    workloads.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the supervised-fleet path (single-engine only)",
    )
    workloads.add_argument(
        "--json",
        dest="as_json",
        default="",
        help="also write the pass-rate report to this JSON file",
    )
    workloads.set_defaults(func=cmd_workloads)

    calibrate = sub.add_parser(
        "calibrate", help="micro-benchmark codecs and save the cost table"
    )
    calibrate.add_argument("--out", default="calibration.json")
    calibrate.add_argument("--repeats", type=int, default=3)
    calibrate.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
