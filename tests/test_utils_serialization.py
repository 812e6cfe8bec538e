"""Tests for repro.utils.serialization."""

import dataclasses
import importlib
import json
import pkgutil
import typing
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

import repro
from repro.adapt.registry import ModelVersion
from repro.exceptions import ConfigurationError, SerializationError
from repro.experiments import SCENARIOS, ExperimentSpec, get_scenario
from repro.fleet.qualify import (
    QUALIFY_PACKS,
    CaseResult,
    ContractResult,
    QualificationReport,
    QualifySpec,
)
from repro.fleet.report import FleetReport
from repro.obs.spec import ObsSpec
from repro.serving.report import ServingReport
from repro.utils.serialization import (
    JsonRecord,
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)

GOLDENS = Path(__file__).resolve().parent / "goldens"


class TestJson:
    def test_round_trip(self, tmp_path):
        payload = {"a": 1, "b": [1, 2, 3], "c": {"nested": "x"}}
        path = save_json(tmp_path / "doc.json", payload)
        assert load_json(path) == payload

    def test_numpy_values_converted(self, tmp_path):
        payload = {"scalar": np.float64(1.5), "array": np.arange(3), "flag": np.bool_(True)}
        path = save_json(tmp_path / "doc.json", payload)
        loaded = load_json(path)
        assert loaded["scalar"] == 1.5
        assert loaded["array"] == [0, 1, 2]
        assert loaded["flag"] is True

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_json(tmp_path / "absent.json")

    def test_malformed_file_raises_naming_it(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": ')
        with pytest.raises(SerializationError, match="malformed JSON in .*doc.json"):
            load_json(path)

    def test_parent_directories_created(self, tmp_path):
        path = save_json(tmp_path / "a" / "b" / "doc.json", {"x": 1})
        assert path.exists()


class TestArrays:
    def test_round_trip(self, tmp_path):
        arrays = {"w": np.random.default_rng(0).normal(size=(3, 4)), "b": np.zeros(4)}
        path = save_arrays(tmp_path / "weights.npz", arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_allclose(loaded["w"], arrays["w"])

    def test_extension_added(self, tmp_path):
        path = save_arrays(tmp_path / "weights", {"x": np.ones(2)})
        assert str(path).endswith(".npz")
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_arrays(tmp_path / "absent.npz")


# -- the JsonRecord codec -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Node(JsonRecord):
    size: int = 1
    name: str = "n"


@dataclasses.dataclass(frozen=True)
class _Tree(JsonRecord):
    nodes: Tuple[_Node, ...]
    ratio: float = 0.5
    child: Optional[_Node] = None
    extra: typing.Dict[str, int] = dataclasses.field(default_factory=dict)


class TestRecordKeys:
    def test_known_keys_pass_through(self):
        assert _Node.from_dict({"size": 3}) == _Node(size=3)

    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(ConfigurationError, match=r"\['sizes'\] in node; valid keys: \['name', 'size'\]"):
            _Node.from_dict({"sizes": 3})

    @pytest.mark.parametrize("payload", [[("size", 3)], "size=3", None])
    def test_non_mapping_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="node must be a mapping"):
            _Node.from_dict(payload)


class TestDecoder:
    def test_nested_nodes_decode_to_records_and_tuples(self):
        tree = _Tree.from_dict({"nodes": [{"size": 2}], "child": {"name": "c"}})
        assert tree == _Tree(nodes=(_Node(size=2),), child=_Node(name="c"))

    def test_int_is_a_float_but_bool_is_no_number(self):
        assert _Tree.from_dict({"nodes": [], "ratio": 1}).ratio == 1
        with pytest.raises(ConfigurationError, match=r"tree\.ratio: expected number, got bool"):
            _Tree.from_dict({"nodes": [], "ratio": True})
        with pytest.raises(ConfigurationError, match=r"tree\.nodes\.0\.size: expected integer"):
            _Tree.from_dict({"nodes": [{"size": False}]})

    def test_errors_name_the_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"tree\.nodes: expected array, got int"):
            _Tree.from_dict({"nodes": 5})
        with pytest.raises(ConfigurationError, match=r"tree\.nodes\.1 must be a mapping"):
            _Tree.from_dict({"nodes": [{}, 7]})
        with pytest.raises(ConfigurationError, match=r"in tree\.child;"):
            _Tree.from_dict({"nodes": [], "child": {"bogus": 1}})

    def test_other_annotations_pass_the_value_through(self):
        assert _Tree.from_dict({"nodes": [], "extra": {"k": "v"}}).extra == {"k": "v"}

    def test_nested_spec_error_names_the_path_from_the_root(self):
        payload = get_scenario("fleet-burst-storm").to_dict()
        payload["fleet"]["mutators"][0] = 3
        with pytest.raises(ConfigurationError, match=r"experiment\.fleet\.mutators\.0 must be a mapping"):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"tiers": [{"bogus": 1}]}, {"name": "x"}],
        ids=["nested-unknown-key", "missing-keys"],
    )
    def test_report_errors_are_configuration_errors(self, payload):
        with pytest.raises(ConfigurationError):
            FleetReport.from_dict(payload)


def _record_classes():
    """Every JsonRecord subclass in the package (all modules imported first)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, stack = set(), [JsonRecord]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def _harvest(record, samples):
    """File ``record`` and every record nested in it under their classes."""
    samples.setdefault(type(record), []).append(record)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, JsonRecord):
                _harvest(item, samples)


def _samples():
    """Real instances of every record class: the registered scenarios, the
    fleet and serving goldens, the qualify packs, plus the qualification
    report and model metadata that only a full run writes."""
    samples = {}
    fleet = [FleetReport.from_json(p) for p in sorted((GOLDENS / "fleet").glob("report-*.json"))]
    # Serving goldens keep only the clock-free fields; fill in the rest.
    serving = json.loads((GOLDENS / "serving" / "tier-partition.json").read_text())["report"]
    clock = {"achieved_rps": 10.0, "duration_seconds": 2.5, "slo_met": True}
    roots = [get_scenario(name) for name in SCENARIOS.names()] + fleet
    roots.append(ServingReport.from_dict({**serving, **clock, "latency": fleet[0].delay}))
    roots.append(QualifySpec(scenario="qualify-flash-crowd"))
    roots.append(ObsSpec(dir="telemetry"))
    roots.extend(c for cases in QUALIFY_PACKS.values() for case in cases for c in case.contracts)
    contract = ContractResult(
        name="c", metric="f1", op=">=", bound=0.5, value=0.75, margin=0.25,
        passed=True, description="d",
    )
    case = CaseResult(
        scenario="s", failure_mode="m", kind="fleet", passed=True,
        contracts=(contract,), alerts=("a",),
    )
    roots.append(QualificationReport(
        pack="p", seed=0, passed=True, n_contracts=1, n_failed=0, cases=(case,),
        schema_version=1,
    ))
    roots.append(ModelVersion(
        version="v-0", tier="iot", layer=0, detector_name="d", parent=None,
        training_window=(3, 9), n_train_windows=6, parameter_count=10,
        weight_dtypes={"float64": 2}, quantization=None,
    ))
    for root in roots:
        _harvest(root, samples)
    return samples


RECORDS = _record_classes()
SAMPLES = _samples()


def _admits_none(hint):
    """Whether the codec lets ``None`` through for annotation ``hint``: any
    ``Union`` does (``Optional``, or passed through), as does every annotation
    it does not check."""
    if typing.get_origin(hint) is typing.Union:
        return True
    checked = dataclasses.is_dataclass(hint) or hint in (str, bool, int, float)
    return not (checked or typing.get_args(hint)[-1:] == (Ellipsis,))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordProtocol:
    """The codec contract, checked on every record class in the package."""

    def test_has_a_sample(self, cls):
        assert cls in SAMPLES, f"add a {cls.__name__} sample to _samples()"

    def test_round_trip(self, cls, tmp_path):
        # Every harvested instance: all registered scenarios, every golden.
        for record in SAMPLES[cls]:
            payload = json.loads(json.dumps(record.to_dict()))
            assert cls.from_dict(payload) == record
            assert cls.from_dict(payload).to_dict() == payload
            assert cls.from_json(record.to_json(tmp_path / "record.json")) == record

    def test_unknown_key_raises(self, cls):
        payload = {**SAMPLES[cls][0].to_dict(), "bogus": 1}
        with pytest.raises(ConfigurationError, match=r"unknown key\(s\) \['bogus'\]"):
            cls.from_dict(payload)

    def test_missing_key_raises_or_takes_the_default(self, cls):
        record = SAMPLES[cls][0]
        for f in dataclasses.fields(cls):
            payload = record.to_dict()
            del payload[f.name]
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                with pytest.raises(ConfigurationError, match=f"missing required key '{f.name}'"):
                    cls.from_dict(payload)
                continue
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            try:
                decoded = cls.from_dict(payload)
            except ConfigurationError as exc:  # __post_init__ refuses the default here
                assert "missing required key" not in str(exc)
            else:
                assert getattr(decoded, f.name) == default

    def test_instances_pass_through(self, cls):
        record = SAMPLES[cls][0]
        assert cls.from_dict(record) is record
        payload = record.to_dict()
        nested = {}
        for f in dataclasses.fields(cls):
            value = getattr(record, f.name)
            if isinstance(value, JsonRecord) or (
                isinstance(value, tuple) and value and isinstance(value[0], JsonRecord)
            ):
                payload[f.name] = nested[f.name] = value
        decoded = cls.from_dict(payload)
        for name, value in nested.items():
            got = getattr(decoded, name)
            if isinstance(value, tuple):
                assert len(got) == len(value) and all(a is b for a, b in zip(got, value))
            else:
                assert got is value

    def test_null_non_optional_node_raises(self, cls):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if _admits_none(hints[f.name]):
                continue
            payload = {**SAMPLES[cls][0].to_dict(), f.name: None}
            with pytest.raises(ConfigurationError, match=rf"\.{f.name}\b"):
                cls.from_dict(payload)
