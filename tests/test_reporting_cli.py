"""Tests for the reporting module and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, run_command
from repro.evaluation.reporting import (
    result_to_dict,
    result_to_markdown,
    write_report,
)
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario


@pytest.fixture(scope="module")
def small_result():
    """A very small univariate run shared by the reporting/CLI tests."""
    spec = apply_overrides(get_scenario("univariate-power"), {
        "data.weeks": 16, "data.anomalous_day_fraction": 0.07, "data.seed": 2,
        "detectors.0.epochs": 10, "detectors.1.epochs": 15, "detectors.2.epochs": 15,
        "policy.episodes": 10,
    })
    return ExperimentRunner(spec).run()


class TestResultToDict:
    def test_contains_all_sections(self, small_result):
        payload = result_to_dict(small_result)
        assert payload["dataset"] == "univariate"
        assert len(payload["table1"]) == 3
        assert len(payload["table2"]) == 5
        assert payload["bandit_training"]["episodes"] == 10
        assert payload["n_test_windows"] == len(small_result.test_labels)

    def test_deployment_records(self, small_result):
        payload = result_to_dict(small_result)
        layers = [entry["layer"] for entry in payload["deployments"]]
        assert layers == [0, 1, 2]
        assert payload["deployments"][0]["quantized"] is True

    def test_json_serialisable(self, small_result, tmp_path):
        payload = result_to_dict(small_result)
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert json.loads(path.read_text())["dataset"] == "univariate"


class TestMarkdownReport:
    def test_contains_both_tables(self, small_result):
        markdown = result_to_markdown(small_result)
        assert "Table I" in markdown
        assert "Table II" in markdown
        assert "Our Method" in markdown
        assert "paper" in markdown.lower()

    def test_adaptive_summary_present(self, small_result):
        markdown = result_to_markdown(small_result)
        assert "delay reduction" in markdown

    def test_custom_title(self, small_result):
        markdown = result_to_markdown(small_result, title="My Reproduction")
        assert markdown.splitlines()[0] == "# My Reproduction"


class TestWriteReport:
    def test_writes_both_files(self, small_result, tmp_path):
        paths = write_report(small_result, tmp_path)
        assert paths["json"].exists()
        assert paths["markdown"].exists()
        loaded = json.loads(paths["json"].read_text())
        assert loaded["dataset"] == "univariate"

    def test_custom_name(self, small_result, tmp_path):
        paths = write_report(small_result, tmp_path, name="run1")
        assert paths["json"].name == "run1.json"
        assert paths["markdown"].name == "run1.md"


class TestCLI:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "univariate-power"])
        assert args.command == "run"
        assert args.seed is None
        assert args.quiet is False

    def test_parser_run_options(self):
        args = build_parser().parse_args(
            ["run", "multivariate-mhealth", "--set", "data.n_subjects=2", "--seed", "5", "--quiet"]
        )
        assert args.overrides == ["data.n_subjects=2"]
        assert args.seed == 5
        assert args.quiet is True

    def test_run_univariate_command_writes_report(self, tmp_path, capsys):
        exit_code = main([
            "run", "univariate-power", "--set", "data.weeks=14", "--set", "policy.episodes=5",
            "--output-dir", str(tmp_path), "--seed", "1",
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table II (univariate)" in captured.out
        assert (tmp_path / "report_univariate-power.json").exists()
        assert (tmp_path / "report_univariate-power.md").exists()

    def test_run_command_quiet_suppresses_tables(self, tmp_path, capsys):
        args = build_parser().parse_args([
            "run", "univariate-power", "--set", "data.weeks=14", "--set", "policy.episodes=5",
            "--quiet", "--output-dir", str(tmp_path),
        ])
        assert run_command(args) == 0
        captured = capsys.readouterr()
        assert "Table II" not in captured.out
        assert (tmp_path / "report_univariate-power.json").exists()
