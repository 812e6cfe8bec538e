"""Tests for the declarative experiment specs and the scenario registry."""

import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    SCENARIOS,
    DataSpec,
    DetectorSpec,
    DeviceSpec,
    ExperimentSpec,
    LinkSpec,
    PolicySpec,
    ScenarioRegistry,
    TopologySpec,
    apply_overrides,
    get_scenario,
    parse_set_arguments,
)
from repro.hec.device import GPU_DEVBOX, JETSON_TX2, RASPBERRY_PI_3

BUILTIN_SCENARIOS = (
    "univariate-power",
    "multivariate-mhealth",
    "univariate-power-paper",
    "multivariate-mhealth-paper",
    "hierarchical-edge-4tier",
    "mixed-detectors",
)


class TestSpecRoundTrip:
    # Every scenario's dict and JSON-file round trip is checked by
    # TestRecordProtocol in test_utils_serialization.py.
    def test_from_dict_rejects_unknown_keys(self):
        payload = get_scenario("univariate-power").to_dict()
        payload["data"]["not_a_field"] = 1
        with pytest.raises(ConfigurationError, match="not_a_field"):
            ExperimentSpec.from_dict(payload)

    def test_with_seed_follows_legacy_offsets(self):
        univariate = get_scenario("univariate-power").with_seed(5)
        assert univariate.seed == 5 and univariate.data.seed == 12
        multivariate = get_scenario("multivariate-mhealth").with_seed(4)
        assert multivariate.seed == 4 and multivariate.data.seed == 15


class TestSpecValidation:
    def test_detector_count_must_match_topology(self):
        with pytest.raises(ConfigurationError, match="one detector per layer"):
            ExperimentSpec(name="broken", detectors=(DetectorSpec(), DetectorSpec()))

    def test_unknown_data_source_rejected(self):
        with pytest.raises(ConfigurationError, match="data.source"):
            DataSpec(source="csv")

    def test_unknown_detector_family_rejected(self):
        with pytest.raises(ConfigurationError, match="detector.family"):
            DetectorSpec(family="transformer")

    def test_unknown_context_rejected(self):
        with pytest.raises(ConfigurationError, match="policy.context"):
            PolicySpec(context="raw-window")

    def test_custom_topology_needs_matching_links(self):
        devices = (DeviceSpec(name="a"), DeviceSpec(name="b"))
        with pytest.raises(ConfigurationError, match="needs 1 links"):
            TopologySpec(tier_names=("a", "b"), devices=devices, links=())

    def test_custom_topology_needs_matching_tier_names(self):
        devices = (DeviceSpec(name="a"), DeviceSpec(name="b"))
        links = (LinkSpec(name="a-b", one_way_latency_ms=1.0),)
        with pytest.raises(ConfigurationError, match="tier names"):
            TopologySpec(tier_names=("a",), devices=devices, links=links)

    def test_links_without_devices_rejected(self):
        links = (LinkSpec(name="a-b", one_way_latency_ms=1.0),)
        with pytest.raises(ConfigurationError, match="no devices"):
            TopologySpec(links=links)

    def test_no_devices_builds_the_paper_testbed(self):
        topology = TopologySpec().build()
        assert topology.devices == [RASPBERRY_PI_3, JETSON_TX2, GPU_DEVBOX]
        assert [link.one_way_latency_ms for link in topology.links] == [125.0, 125.0]

    def test_explicit_devices_build_exactly_those(self):
        devices = tuple(DeviceSpec(name=name) for name in ("a", "b", "c"))
        links = (LinkSpec(name="a-b", one_way_latency_ms=50.0),
                 LinkSpec(name="b-c", one_way_latency_ms=80.0))
        topology = TopologySpec(devices=devices, links=links).build()
        assert [device.name for device in topology.devices] == ["a", "b", "c"]
        assert [link.one_way_latency_ms for link in topology.links] == [50.0, 80.0]

    def test_lists_are_normalised_to_tuples(self):
        spec = DetectorSpec(hidden_sizes=[8, 4, 8])
        assert spec.hidden_sizes == (8, 4, 8)


class TestOverrides:
    def test_int_float_bool_coercion(self):
        spec = get_scenario("univariate-power")
        out = apply_overrides(spec, {
            "data.weeks": "12",
            "policy.learning_rate": "0.01",
            "obs.trace": "false",
        })
        assert out.data.weeks == 12
        assert out.policy.learning_rate == pytest.approx(0.01)
        assert out.obs.trace is False

    def test_detector_index_paths(self):
        spec = get_scenario("univariate-power")
        out = apply_overrides(spec, {"detectors.1.epochs": "7"})
        assert out.detectors[1].epochs == 7
        assert out.detectors[0].epochs == spec.detectors[0].epochs

    def test_overrides_reach_windowing_and_keep_the_context_kind(self):
        spec = apply_overrides(get_scenario("multivariate-mhealth"), {
            "data.window_size": "64", "data.stride": "32", "seed": "9",
        })
        assert (spec.data.window_size, spec.data.stride, spec.seed) == (64, 32, 9)
        assert spec.policy.context == "iot-encoder"

    def test_unknown_key_raises(self):
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="unknown key"):
            apply_overrides(spec, {"data.wekks": "12"})

    def test_unknown_section_raises(self):
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="unknown key"):
            apply_overrides(spec, {"dta.weeks": "12"})

    def test_bad_value_raises(self):
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="cannot parse"):
            apply_overrides(spec, {"data.weeks": "a lot"})

    def test_bad_bool_raises(self):
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="boolean"):
            apply_overrides(spec, {"obs.trace": "maybe"})

    @pytest.mark.parametrize(
        "section,key",
        [("policy", "batch_size"), ("deployment", "use_calibrated_execution_times")],
    )
    def test_removed_key_in_a_spec_file_is_rejected_by_name(self, section, key):
        """A saved spec still carrying a deleted key fails loudly, naming the
        key and the section's remaining keys, instead of being dropped."""
        stale = get_scenario("univariate-power").to_dict()
        stale[section][key] = 1
        with pytest.raises(ConfigurationError, match=f"unknown key.*{key}.*experiment.{section}"):
            ExperimentSpec.from_dict(stale)

    def test_removed_evaluation_node_is_rejected_by_name(self):
        """``evaluation`` held ``batched`` (the sequential scheme drivers),
        ``table1`` and ``demo_panel``, and every run builds both now; an old
        spec file or ``--set`` still carrying the node fails loudly."""
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="unknown key 'evaluation'"):
            apply_overrides(spec, {"evaluation.batched": "false"})
        stale = spec.to_dict()
        stale["evaluation"] = {"table1": True, "demo_panel": True, "batched": True}
        with pytest.raises(ConfigurationError, match="unknown key.*evaluation"):
            ExperimentSpec.from_dict(stale)

    def test_removed_topology_preset_is_rejected_by_name(self):
        """No devices is the paper testbed; a spec naming it by preset is refused."""
        stale = get_scenario("univariate-power").to_dict()
        stale["topology"]["preset"] = "paper-three-layer"
        with pytest.raises(ConfigurationError,
                           match="unknown key.*preset.*experiment.topology"):
            ExperimentSpec.from_dict(stale)

    def test_bad_index_raises(self):
        spec = get_scenario("univariate-power")
        with pytest.raises(ConfigurationError, match="out of range"):
            apply_overrides(spec, {"detectors.9.epochs": "7"})

    def test_overrides_do_not_mutate_original(self):
        spec = get_scenario("univariate-power")
        apply_overrides(spec, {"data.weeks": "12"})
        assert spec.data.weeks == 40

    def test_parse_set_arguments(self):
        assert parse_set_arguments(["a.b=1", "c=x=y"]) == {"a.b": "1", "c": "x=y"}

    def test_parse_set_arguments_rejects_missing_equals(self):
        with pytest.raises(ConfigurationError, match="KEY=VALUE"):
            parse_set_arguments(["data.weeks"])


class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = SCENARIOS.names()
        for name in BUILTIN_SCENARIOS:
            assert name in names

    def test_len_and_iteration_follow_the_sorted_names(self):
        assert len(SCENARIOS) == len(SCENARIOS.names())
        assert [entry.name for entry in SCENARIOS] == sorted(SCENARIOS.names())

    def test_duplicate_registration_raises(self):
        registry = ScenarioRegistry()
        registry.register("demo", lambda: get_scenario("univariate-power"))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("demo", lambda: get_scenario("univariate-power"))

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(ConfigurationError, match="available"):
            SCENARIOS.spec("no-such-scenario")

    def test_decorator_registration_and_docstring_description(self):
        registry = ScenarioRegistry()

        @registry.register("demo")
        def demo():
            """A demo scenario."""
            return get_scenario("univariate-power")

        entry = registry.entry("demo")
        assert entry.description == "A demo scenario."
        assert registry.spec("demo").name == "univariate-power"

    def test_invalid_names_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(ConfigurationError, match="whitespace"):
            registry.register("has space", lambda: None)

    def test_builtins_carry_builtin_tag(self):
        """The perf harness sweeps tags=('builtin',); example/user scenarios must not leak in."""
        for name in BUILTIN_SCENARIOS:
            assert "builtin" in SCENARIOS.entry(name).tags

    def test_tag_filtering(self):
        fast = SCENARIOS.names(exclude_tags=("paper-scale",))
        assert "univariate-power" in fast
        assert "univariate-power-paper" not in fast
        paper = SCENARIOS.names(tags=("paper-scale",))
        assert set(paper) == {"univariate-power-paper", "multivariate-mhealth-paper"}

    def test_factory_must_return_spec(self):
        registry = ScenarioRegistry()
        registry.register("broken", lambda: 42)
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            registry.spec("broken")


class TestBuiltinSpecDigests:
    """The built-in specs are pinned byte-for-byte: a changed digest means a
    changed experiment (and a stale benchmark fingerprint), never a refactor."""

    DIGESTS = {
        "univariate-power":
            "6a7854dd6c1a5033fcd322d1c7d50540344876c7f01cb7d83fe13bd976d0b182",
        "multivariate-mhealth":
            "c797700ecedb8ee46ae2fcacb72f187e51c1f3bedcd4b2e2d90665ec71a886b6",
        "univariate-power-paper":
            "8195811b9e34a966bf204a0d289591efafe1ba92f28bfb9b08148feaa39c41d5",
        "multivariate-mhealth-paper":
            "59eace5c2f7fc395ee5e0b336eb84c05fc3f3820df118a1b51bd7921066de16b",
        "hierarchical-edge-4tier":
            "8d63369d0ad09b74a99a4c8e56163130714d76f2bea2fd457b6c43c66ccf572e",
        "mixed-detectors":
            "223a0cacd562bf8046ef4de888a89f6dadf7ed2a0a0307950cf214bb3a91f741",
    }
    #: The digests before ``topology.preset`` and the ``evaluation`` node
    #: (``table1``, ``demo_panel``) were removed.
    DIGESTS_WITH_EVALUATION_AND_PRESET = {
        "univariate-power":
            "46513cc5e2fea663c6dee9ea629d01456943b83c466916f0aebd7951d2bf4767",
        "multivariate-mhealth":
            "b39106d9f6e751bd252a7f32351599a8217ac84b7ebf7006dd8479d132e235ba",
        "univariate-power-paper":
            "eb07718e1dc5f86ea96c458717685da69b216cf2e648fd7e976eddfe0c2327e5",
        "multivariate-mhealth-paper":
            "b7471b8c8b6bcfd56173969079df6b2f86796b50bba811bf9c7c242dfe6de353",
        "hierarchical-edge-4tier":
            "dbc8a60352701b50d686df81846394df12110962ae321608217b0b5de438edcd",
        "mixed-detectors":
            "66e8c9bc6b8c7956e95266f22744682626a7dec06b3766b67f58ad5f9f080c38",
    }
    #: The digests before each detector's ``input_adapter`` and
    #: ``bidirectional`` were removed.
    DIGESTS_WITH_DETECTOR_KEYS = {
        "univariate-power":
            "8f91f75a79ab23e8bb825e6568c02017b0dede76799d2308911dbcf8fde60e87",
        "multivariate-mhealth":
            "dcca87afe54c619b95a81edbb44cbe066c02be4e6c5c599f5bbf0de5ef387e59",
        "univariate-power-paper":
            "2a9ebc838f65b32efe56edf6c1790e1644646c9bfbcb880215969c4c5e440cd5",
        "multivariate-mhealth-paper":
            "3097b7da9f705770aa0545d9176c8798dc58c3990dc4217c6c523cd4d5cb4efa",
        "hierarchical-edge-4tier":
            "bc328742f0be26f62e611ff4ff220fb1e5450da6631717add94d04ef0d2fc529",
        "mixed-detectors":
            "2a3b10ed4c73db99e232ecd30a9aaa0557e2181ae5fa6b5dbba09a6fc9dff100",
    }
    #: The digests before ``policy.batch_size`` and
    #: ``deployment.use_calibrated_execution_times`` were removed.
    DIGESTS_WITH_BANDIT_KEYS = {
        "univariate-power":
            "fc2ceb9d40fa107a07381dd826a13ed2df2cf3fb6daefeaea3d7b09ceea24775",
        "multivariate-mhealth":
            "453724df9b15c937e592e623f5f14cdfa7bffc8eb5d1a3dbace78b55ef630131",
        "univariate-power-paper":
            "8ce15f18f7c04209a43f5333d3f5674ea58b5cc8b01465624b88ed51f5f74ac7",
        "multivariate-mhealth-paper":
            "027368843056f4cf93c8e659b39d196ca98b9f630160b37072ad6ed2820baf5d",
        "hierarchical-edge-4tier":
            "dcff2ab4380e32c9d868666d082b90c933590229c77c0f9f874be24c83b3d4c7",
        "mixed-detectors":
            "fb3a331e1c862a1fcd2b77f3b579f97cccac37e48e1264bfff862f876fd78ebc",
    }
    #: The digests before ``evaluation.batched`` was removed as well.
    DIGESTS_WITH_BATCHED = {
        "univariate-power":
            "2e2644712068c2a8905db27a5fb1f8a7c8dabfd871b02a6a943526ff898343b7",
        "multivariate-mhealth":
            "b82113eafb06bfabf189085dfb5c730a7f1b7fa231d2f01eb061c05c2c7144a6",
        "univariate-power-paper":
            "7bf1469aa1417af130e30a94ccc76296d987b13b5822a45ccc8ebcc9f6ce2e05",
        "multivariate-mhealth-paper":
            "4f8d739a1163cc18f46ec902e87401f10e5cfd33bd8c66a1c0fc6145d0c2241d",
        "hierarchical-edge-4tier":
            "9034fa1e00294cc0364de4476a35bc2808710403684d10e4bb5507fb17957e55",
        "mixed-detectors":
            "95fe3e1789774e1956c5db0d44df192c0efe1d486f76d9aec14c1247086c61f6",
    }

    @staticmethod
    def _digest(spec: dict) -> str:
        return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_spec_digest_is_pinned(self, name):
        assert self._digest(get_scenario(name).to_dict()) == self.DIGESTS[name]

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_only_the_removed_keys_left_the_spec(self, name):
        """Re-inserting the removed keys reproduces each previous digest, so
        the re-pins above moved nothing else."""
        spec = get_scenario(name).to_dict()
        spec["topology"]["preset"] = (
            None if name == "hierarchical-edge-4tier" else "paper-three-layer"
        )
        spec["evaluation"] = {"table1": True, "demo_panel": True}
        assert self._digest(spec) == self.DIGESTS_WITH_EVALUATION_AND_PRESET[name]
        for detector in spec["detectors"]:
            detector["input_adapter"] = None
            detector["bidirectional"] = None
        if name == "mixed-detectors":
            spec["detectors"][2]["input_adapter"] = "expand-channel"
        assert self._digest(spec) == self.DIGESTS_WITH_DETECTOR_KEYS[name]
        spec["policy"]["batch_size"] = 1
        spec["deployment"]["use_calibrated_execution_times"] = True
        assert self._digest(spec) == self.DIGESTS_WITH_BANDIT_KEYS[name]
        spec["evaluation"]["batched"] = True
        assert self._digest(spec) == self.DIGESTS_WITH_BATCHED[name]


class TestCustomScenarioExample:
    """examples/custom_scenario.py registers a runnable scenario (satellite)."""

    @pytest.fixture(scope="class")
    def example_module(self):
        import sys

        path = Path(__file__).resolve().parent.parent / "examples" / "custom_scenario.py"
        module_name = "custom_scenario_example"
        if module_name in sys.modules:
            return sys.modules[module_name]
        module_spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[module_name] = module
        module_spec.loader.exec_module(module)
        return module

    def test_example_registers_scenario(self, example_module):
        assert example_module.SCENARIO_NAME in SCENARIOS
        spec = get_scenario(example_module.SCENARIO_NAME)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_example_scenario_is_tiny(self, example_module):
        spec = get_scenario(example_module.SCENARIO_NAME)
        assert spec.data.weeks <= 16
        assert spec.policy.episodes <= 20
