"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert (args.query, args.mode) == ("q1", "adaptive")

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--query", "q99"])


class TestCommands:
    def test_codecs(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        for name in ("bd", "bitmap", "dict", "eg", "ed", "ns", "nsv", "rle"):
            assert name in out
        assert "affine" in out

    def test_ratios(self, capsys):
        args = ["ratios", "--dataset", "smart_grid", "--column", "value", "-n", "2048"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "kindnum" in out
        assert "achieved" in out

    def test_ratios_unknown_column(self, capsys):
        assert main(["ratios", "--dataset", "smart_grid", "--column", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_explain_q3(self, capsys):
        assert main(["explain", "--dataset", "linear_road", "--query", "q3"]) == 0
        out = capsys.readouterr().out
        assert "JoinPlan" in out
        assert "inner side L: by vehicle rows 1, probe vehicle == vehicle" in out

    def test_explain_custom_sql(self, capsys):
        sql = "select timestamp, avg(cpu) as c from TaskEvents [range 64 slide 64]"
        assert main(["explain", "--dataset", "cluster", "--sql", sql]) == 0
        out = capsys.readouterr().out
        assert "WindowAggPlan" in out
        assert "cpu: affine" in out

    def test_explain_bad_sql_is_error(self, capsys):
        assert main(["explain", "--dataset", "cluster", "--sql", "selec x"]) == 2

    def test_explain_positional_sql_full_catalog(self, capsys):
        # no --dataset: positional SQL resolves streams across the union
        # catalog, and the logical plan + fired rules are appended
        sql = "select avg(cpu) as c from TaskEvents [range 64 slide 64]"
        assert main(["explain", sql]) == 0
        out = capsys.readouterr().out
        assert "logical plan:" in out
        assert "-> window-agg" in out
        assert "rules fired:" in out

    def test_explain_json_is_machine_readable(self, capsys):
        import json

        assert main(["explain", "--query", "q1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plan"]["node"] in ("project", "order-limit")
        assert len(doc["digest"]) == 16
        assert "rules_fired" in doc["optimizer"]

    def test_explain_no_optimize_renders_naive_plan(self, capsys):
        assert main(["explain", "--query", "q1", "--no-optimize"]) == 0
        out = capsys.readouterr().out
        assert "logical plan:" in out
        assert "rules fired" not in out

    def test_explain_codec_hint_fires_fusion(self, capsys):
        sql = (
            "select avg(value) as a from SmartGridStr "
            "[range 64 slide 64] where value < 3.0"
        )
        assert main(["explain", sql, "--codec", "rle"]) == 0
        out = capsys.readouterr().out
        assert "fusion" in out
        assert "fused_on=value" in out

    def test_explain_corpus_query_resolves(self, capsys):
        # workload-corpus names (beyond q1-q6) resolve via --query
        assert main(["explain", "--query", "sg_or_filter"]) == 0
        out = capsys.readouterr().out
        assert "logical plan:" in out

    def test_explain_unknown_query_is_error(self, capsys):
        assert main(["explain", "--query", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_explain_stats_needs_a_named_query(self, capsys):
        sql = "select avg(cpu) as c from TaskEvents [range 64 slide 64]"
        assert main(["explain", sql, "--stats"]) == 2

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--query",
                "q5",
                "--mode",
                "static:ns",
                "--batches",
                "1",
                "--windows",
                "2",
                "--show-rows",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "time breakdown" in out
        assert "totalCPU" in out

    def test_run_single_node(self, capsys):
        code = main(
            [
                "run",
                "--query",
                "q1",
                "--mode",
                "baseline",
                "--bandwidth",
                "0",
                "--batches",
                "1",
                "--windows",
                "2",
            ]
        )
        assert code == 0
        assert "trans 0.0%" in capsys.readouterr().out

    def test_faults_huge_retry_budget_quarantines(self, capsys):
        # 1 100 backoffs run past the float range of 2.0 ** k: the capped
        # backoff must keep waiting the cap, not raise OverflowError
        code = main(
            [
                "faults",
                "--query",
                "q1",
                "--drop",
                "1.0",
                "--max-retries",
                "1100",
                "--batches",
                "1",
                "--windows",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quarantined=1" in out
        assert "retransmissions        1100" in out
