"""Tests for the scenario-driven CLI (run / list / describe)."""

import json

import pytest

from repro.cli import _load_spec_file, build_parser, main
from repro.experiments import SCENARIOS, get_scenario


class TestParser:
    def test_run_parses_scenario_and_overrides(self):
        args = build_parser().parse_args([
            "run", "univariate-power", "--set", "data.weeks=8",
            "--set", "policy.episodes=2", "--seed", "3",
        ])
        assert args.command == "run"
        assert args.scenario == "univariate-power"
        assert args.overrides == ["data.weeks=8", "policy.episodes=2"]
        assert args.seed == 3

    def test_list_and_describe_parse(self):
        assert build_parser().parse_args(["list"]).command == "list"
        args = build_parser().parse_args(["describe", "mixed-detectors"])
        assert args.scenario == "mixed-detectors"

    @pytest.mark.parametrize("alias", ["univariate", "multivariate", "both"])
    def test_removed_aliases_are_invalid_choices(self, alias, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([alias])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_knob_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "univariate-power", "--weeks", "3"])


class TestListAndDescribe:
    def test_list_prints_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("univariate-power", "multivariate-mhealth",
                     "hierarchical-edge-4tier", "mixed-detectors"):
            assert name in out

    def test_describe_prints_spec_json(self, capsys):
        assert main(["describe", "univariate-power"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["dataset_name"] == "univariate"
        assert payload["data"]["weeks"] == 40
        assert len(payload["detectors"]) == 3

    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_described_spec_loads_back_as_a_spec_file(self, name, capsys, tmp_path):
        """The JSON ``describe`` prints is the spec ``--spec-file`` accepts."""
        assert main(["describe", name]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "spec.json"
        path.write_text(out[out.index("{"):], encoding="utf-8")
        assert _load_spec_file(str(path)) == get_scenario(name)

    def test_describe_unknown_scenario_exits_2(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_scenario_report(self, tmp_path, capsys):
        exit_code = main([
            "run", "univariate-power",
            "--set", "data.weeks=8",
            "--set", "detectors.0.epochs=2",
            "--set", "detectors.1.epochs=2",
            "--set", "detectors.2.epochs=2",
            "--set", "policy.episodes=2",
            "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table II (univariate)" in captured.out
        report = tmp_path / "report_univariate-power.json"
        assert report.exists()
        assert json.loads(report.read_text())["dataset"] == "univariate"

    def test_spec_only_prints_resolved_spec_without_running(self, capsys):
        exit_code = main([
            "run", "univariate-power", "--set", "data.weeks=9", "--spec-only",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["weeks"] == 9

    def test_seed_flag_reseeds_spec(self, capsys):
        assert main(["run", "univariate-power", "--seed", "5", "--spec-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 5
        assert payload["data"]["seed"] == 12

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_override_key_exits_2(self, capsys):
        assert main(["run", "univariate-power", "--set", "data.bogus=1"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_removed_batched_override_exits_2_naming_the_key(self, capsys):
        assert main(["run", "univariate-power", "--set", "evaluation.batched=false"]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and "batched" in err

    def test_bad_override_value_exits_2(self, capsys):
        assert main(["run", "univariate-power", "--set", "data.weeks=soon"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_malformed_set_pair_exits_2(self, capsys):
        assert main(["run", "univariate-power", "--set", "data.weeks"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, path",
        [("detectors", 5, "experiment.detectors"),
         ("data", None, "experiment.data"),
         ("seed", "zero", "experiment.seed")],
    )
    def test_malformed_spec_file_exits_2_naming_the_node(
        self, key, value, path, tmp_path, capsys
    ):
        payload = get_scenario("univariate-power").to_dict()
        payload[key] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--spec-file", str(spec_file), "--spec-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
