"""Experiment registry and command-line interface."""

import io
from pathlib import Path

import pytest

from repro.analysis.experiments import REGISTRY, experiments_table, get_experiment
from repro.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = {exp.identifier for exp in REGISTRY}
        # Every figure panel and results paragraph of the paper.
        for required in (
            "fig2a",
            "fig2b",
            "fig3a",
            "fig3b",
            "results-detection",
            "results-rls-runtime",
            "jammer-feasibility",
        ):
            assert required in ids

    def test_every_bench_file_exists(self):
        for exp in REGISTRY:
            assert (BENCH_DIR / exp.bench).is_file(), f"{exp.bench} missing"

    def test_every_bench_file_is_registered(self):
        registered = {exp.bench for exp in REGISTRY}
        on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
        assert on_disk == registered

    def test_get_experiment(self):
        exp = get_experiment("fig2a")
        assert "DoS" in exp.title
        assert exp.kind == "figure"

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="fig2a"):
            get_experiment("fig9z")

    def test_paper_claims_present_for_paper_artifacts(self):
        for exp in REGISTRY:
            if exp.kind in ("figure", "table"):
                assert exp.paper_claim

    def test_table_rendering(self):
        text = experiments_table()
        assert "fig2a" in text
        assert "bench_fig2a_dos_constant_decel.py" in text

    def test_table_filtering(self):
        text = experiments_table(kind="ablation")
        assert "ablation-forgetting" in text
        assert "fig2a" not in text


class TestCLI:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out, err=io.StringIO())
        return code, out.getvalue()

    def run_cli_streams(self, argv):
        """Like run_cli but also returns the diagnostics stream."""
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_list(self):
        code, text = self.run_cli(["list"])
        assert code == 0
        assert "fig2a" in text
        assert "platoon-string-stability" in text

    def test_run_figure(self):
        code, text = self.run_cli(["run", "fig2a", "--no-plot", "--seed", "7"])
        assert code == 0
        assert "detection at k = 182 s" in text
        assert "0 FP / 0 FN" in text

    def test_run_figure_with_plot(self):
        code, text = self.run_cli(["run", "fig2b"])
        assert code == 0
        assert "radar distance" in text
        assert "estimated" in text

    def test_run_non_figure_points_to_bench(self):
        code, text = self.run_cli(["run", "jammer-feasibility"])
        assert code == 0
        assert "pytest benchmarks/bench_jammer_feasibility.py" in text

    def test_run_unknown_experiment_diagnoses_on_stderr(self):
        code, out, err = self.run_cli_streams(["run", "fig9z"])
        assert code == 2
        assert out == ""  # stdout stays clean for pipelines
        assert "unknown experiment" in err

    def test_run_negative_seed_is_a_usage_error(self):
        code, out, err = self.run_cli_streams(
            ["run", "fig2a", "--no-plot", "--seed", "-1"]
        )
        assert code == 2
        assert out == ""
        assert "sensor_seed must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_report_negative_seeds_rejected_at_parse_time(self, tmp_path, capsys):
        report = tmp_path / "R.md"
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--markdown", str(report), "--seeds", "-3"])
        assert excinfo.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not report.exists()

    def test_report(self):
        code, text = self.run_cli(["report"])
        assert code == 0
        assert "fig3b" in text
        assert "Paper-vs-measured" in text

    def test_run_figure_workers_output_identical(self):
        code1, serial = self.run_cli(["run", "fig2a", "--no-plot"])
        code2, parallel = self.run_cli(
            ["run", "fig2a", "--no-plot", "--workers", "2"]
        )
        assert code1 == code2 == 0
        assert serial == parallel

    def test_workers_flag_on_report(self):
        code, text = self.run_cli(["report", "--workers", "2"])
        assert code == 0
        assert "Paper-vs-measured" in text

    def test_invalid_workers_rejected_at_parse_time(self, capsys):
        for bad in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "fig2a", "--workers", bad])
            assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_flag_on_run_custom(self, tmp_path):
        from repro import fig2_scenario
        from repro.simulation import save_scenario

        path = save_scenario(fig2_scenario("dos"), tmp_path / "spec.json")
        code, text = self.run_cli(["run-custom", str(path), "--workers", "2"])
        assert code == 0
        assert "detection at k = 182 s" in text

    def test_run_custom_bad_spec_keeps_stdout_empty(self, tmp_path):
        """Regression: spec-load failures used to pollute stdout."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = self.run_cli_streams(["run-custom", str(bad)])
        assert code == 2
        assert out == ""
        assert "could not load" in err and str(bad) in err

    def test_run_custom_missing_spec_keeps_stdout_empty(self, tmp_path):
        code, out, err = self.run_cli_streams(
            ["run-custom", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert out == ""
        assert "could not load" in err

    def test_profile_flag_prints_stage_table(self, tmp_path):
        from repro import fig2_scenario
        from repro.simulation import save_scenario

        path = save_scenario(
            fig2_scenario("dos", horizon=20.0), tmp_path / "spec.json"
        )
        code, out, err = self.run_cli_streams(
            ["run-custom", str(path), "--profile"]
        )
        assert code == 0
        assert "telemetry: per-stage timing" in out
        for stage in ("engine.sense", "engine.estimate", "engine.control",
                      "batch.run", "facade.run"):
            assert stage in out
        assert "telemetry: counters" in out

    def test_trace_flag_writes_jsonl_and_trace_commands_read_it(
        self, tmp_path
    ):
        import json

        from repro import fig2_scenario
        from repro.simulation import save_scenario

        spec = save_scenario(
            fig2_scenario("dos", horizon=20.0), tmp_path / "spec.json"
        )
        trace = tmp_path / "trace.jsonl"
        code, out, err = self.run_cli_streams(
            ["run-custom", str(spec), "--trace", str(trace)]
        )
        assert code == 0
        assert "telemetry" not in out  # table only with --profile
        assert str(trace) in err
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        assert any(r.get("name") == "batch.run" for r in lines)
        assert lines[-1]["kind"] == "counters"

        code, out, _ = self.run_cli_streams(["trace", "summary", str(trace)])
        assert code == 0
        assert "batch.run" in out

        dest = tmp_path / "summary.json"
        code, out, _ = self.run_cli_streams(
            ["trace", "export", str(trace), str(dest)]
        )
        assert code == 0
        document = json.loads(dest.read_text())
        assert {"trace", "events", "spans", "counters"} <= set(document)
        assert any(s["name"] == "engine.sense" for s in document["spans"])

    def test_trace_summary_missing_file_diagnoses_on_stderr(self, tmp_path):
        code, out, err = self.run_cli_streams(
            ["trace", "summary", str(tmp_path / "missing.jsonl")]
        )
        assert code == 2
        assert out == ""
        assert "could not read trace" in err

    def test_trace_summary_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"span"\nnot json\n')
        code, out, err = self.run_cli_streams(["trace", "summary", str(bad)])
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err
