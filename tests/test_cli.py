"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAnalyze:
    @pytest.mark.parametrize("figure", [1, 4, 5, 6, 7, 8])
    def test_figures_print(self, capsys, figure):
        assert main(["analyze", "--figure", str(figure)]) == 0
        out = capsys.readouterr().out
        assert f"Figure {figure}" in out

    def test_figure6_contents(self, capsys):
        main(["analyze", "--figure", "6"])
        out = capsys.readouterr().out
        assert "T=80%" in out and "mean=" in out

    def test_figure4_worked_numbers(self, capsys):
        main(["analyze", "--figure", "4"])
        out = capsys.readouterr().out
        assert "10.1%" in out

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--figure", "12"])


class TestExperiment:
    def test_exp1_small(self, capsys):
        code = main(
            [
                "experiment",
                "exp1",
                "--scale",
                "8000",
                "--seeds",
                "1",
                "--points",
                "3",
                "--sample-size",
                "200",
                "--policy",
                "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Histograms" in out
        assert "Exact" in out
        assert "performance vs predictability" in out

    def test_repeated_policy_adds_one_arm(self, tmp_path, capsys):
        """Regression: a repeated ``--policy`` (or one naming a default
        arm) duplicated that arm's records."""
        from repro.obs import read_traces

        out_path = tmp_path / "arms.jsonl"
        code = main(
            [
                "experiment",
                "exp1",
                "--scale",
                "5000",
                "--seeds",
                "1",
                "--points",
                "2",
                "--sample-size",
                "200",
                "--policy",
                "exact",
                "--policy",
                "exact",
                "--policy",
                "80",
                "--trace-out",
                str(out_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        configs = [record["config"] for record in read_traces(out_path)]
        assert configs.count("Exact") == 2  # 1 seed x 2 points
        assert configs.count("T=80%") == 2
        assert len(configs) == 7 * 2

    def test_exp3_small(self, capsys):
        code = main(
            [
                "experiment",
                "exp3",
                "--scale",
                "5000",
                "--seeds",
                "1",
                "--points",
                "3",
                "--sample-size",
                "200",
            ]
        )
        assert code == 0
        assert "exp3-star-join" in capsys.readouterr().out


class TestSql:
    def test_explain_only(self, capsys):
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45",
                "--scale",
                "5000",
                "--explain-only",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HashAggregate" in out

    def test_execute(self, capsys):
        code = main(
            [
                "sql",
                "SELECT SUM(lineitem.l_extendedprice) AS rev FROM lineitem "
                "WHERE lineitem.l_quantity > 45",
                "--scale",
                "5000",
                "--policy",
                "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows: 1" in out
        assert "simulated execution time" in out

    def test_histogram_estimator(self, capsys):
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM lineitem, part WHERE part.p_size < 5",
                "--scale",
                "5000",
                "--policy",
                "histogram",
                "--sample-size",
                "100",
                "--explain-only",
            ]
        )
        assert code == 0

    def test_threshold_accepted(self, capsys):
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM lineitem "
                "WHERE lineitem.l_quantity > 45 OPTION (CONFIDENCE 95)",
                "--scale",
                "5000",
                "--sample-size",
                "100",
                "--policy",
                "conservative",
                "--explain-only",
            ]
        )
        assert code == 0

    def test_bad_statements_report_an_error(self, capsys):
        """An unknown table, a syntax error, an unqualified column and an
        unknown column each exit 2 with one error line, no traceback."""
        statements = {
            "SELECT COUNT(*) FROM nosuch": "nosuch",
            "SELEC x FROM lineitem": "SELEC",
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 4": "l_quantity",
            "SELECT COUNT(*) FROM lineitem WHERE lineitem.nope > 4": "nope",
        }
        for statement, culprit in statements.items():
            code = main(["sql", statement, "--scale", "2000", "--sample-size", "100"])
            err = capsys.readouterr().err
            assert code == 2, statement
            assert err.startswith("error: ") and culprit in err, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--threshold", "--estimator"])
    def test_retired_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sql", "SELECT COUNT(*) FROM lineitem", flag, "95"])
        assert exit_info.value.code == 2

    def test_star_workload(self, capsys):
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM fact, dim1 WHERE dim1.d_attr < 100",
                "--workload",
                "star",
                "--scale",
                "5000",
                "--policy",
                "exact",
            ]
        )
        assert code == 0


class TestTrace:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "exp1.jsonl"
        code = main(
            [
                "experiment",
                "exp1",
                "--scale",
                "5000",
                "--seeds",
                "1",
                "--points",
                "2",
                "--sample-size",
                "200",
                "--trace-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_experiment_trace_out_writes_jsonl(self, trace_file, capsys):
        from repro.obs import read_traces

        records = read_traces(trace_file)
        assert records and all(r["kind"] == "query" for r in records)
        capsys.readouterr()

    def test_summarize(self, trace_file, capsys):
        assert main(["trace", "summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Q-error by config" in out
        assert "plan shapes by config" in out

    def test_summarize_single_query(self, trace_file, capsys):
        from repro.obs import read_traces

        trace_id = read_traces(trace_file)[0]["trace_id"]
        capsys.readouterr()
        code = main(["trace", "summarize", str(trace_file), "--query", trace_id])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen plan:" in out
        assert "estimation evidence" in out

    def test_summarize_missing_file_fails(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_summarize_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 999}\n')
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_sql_trace(self, tmp_path, capsys):
        out_path = tmp_path / "sql.jsonl"
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45",
                "--scale",
                "5000",
                "--sample-size",
                "100",
                "--trace-out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen plan:" in out
        assert "execution breakdown" in out
        from repro.obs import read_traces

        (record,) = read_traces(out_path)
        assert record["template"] == "sql/tpch"
        assert record["execution"]["actual_rows"] == 1

    def test_perf_flag_prints_summary(self, capsys):
        code = main(
            [
                "experiment",
                "exp1",
                "--scale",
                "5000",
                "--seeds",
                "1",
                "--points",
                "2",
                "--sample-size",
                "200",
                "--perf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "perf summary:" in out
        assert "hit rate" in out
        assert "quantile-table hits" in out

    def test_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "experiment",
                "exp1",
                "--scale",
                "5000",
                "--seeds",
                "1",
                "--points",
                "2",
                "--sample-size",
                "200",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_perf_events_total counter" in text
        assert "repro_cache_hit_rate" in text


class TestObservabilityFlagParity:
    """sql and experiment share one observability flag set."""

    OBS_FLAGS = {"--trace", "--trace-out", "--metrics-out"}

    def _option_strings(self, sub):
        return {
            opt for action in sub._actions for opt in action.option_strings
        }

    def test_both_subcommands_have_all_flags(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        choices = parser._subparsers._group_actions[0].choices
        for name in ("sql", "experiment"):
            missing = self.OBS_FLAGS - self._option_strings(choices[name])
            assert not missing, f"{name} is missing {missing}"

    def test_sql_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "sql_metrics.prom"
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 45",
                "--scale",
                "5000",
                "--sample-size",
                "100",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        text = metrics.read_text()
        assert "# TYPE repro_session_prepares_total counter" in text
        assert "repro_session_executes_total" in text
        assert "repro_session_plan_cache" in text


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestExperimentExp2:
    def test_exp2_small(self, capsys):
        code = main(
            [
                "experiment",
                "exp2",
                "--scale",
                "8000",
                "--seeds",
                "1",
                "--points",
                "3",
                "--sample-size",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exp2-three-table" in out
        assert "Histograms" in out


class TestReport:
    def test_report_generated(self, tmp_path, capsys):
        output = tmp_path / "REPORT.md"
        code = main(
            [
                "report",
                "--output",
                str(output),
                "--scale",
                "6000",
                "--fact-rows",
                "5000",
                "--seeds",
                "1",
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "Figure 4" in text
        assert "Experiment 1 / Figure 9" in text
        assert "Experiment 3 / Figure 11" in text
        assert "Histograms" in text


class TestChaos:
    def test_small_sweep_passes(self, capsys):
        code = main(
            [
                "chaos",
                "--plans", "4",
                "--seed", "0",
                "--scale", "1500",
                "--sample-size", "80",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos sweep: 4 fault plans" in out
        assert out.strip().endswith("PASS")

    def test_verbose_lists_every_plan(self, capsys):
        code = main(
            [
                "chaos",
                "--plans", "2",
                "--seed", "1",
                "--scale", "1500",
                "--sample-size", "80",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("[ok]") == 2

    def test_bad_plan_count_rejected(self, capsys):
        with pytest.raises(Exception, match="count"):
            main(["chaos", "--plans", "0", "--scale", "1500"])
