"""Tests for deployment, delay accounting and the HEC system."""

import copy
from dataclasses import dataclass, field
from functools import partial
from typing import List

import numpy as np
import pytest

from repro.detectors.autoencoder import AutoencoderDetector
from repro.exceptions import ConfigurationError, DeploymentError, SchedulingError
from repro.hec.delay import RESULT_PAYLOAD_BYTES, window_payload_bytes
from repro.hec.deployment import deploy_detectors
from repro.hec.device import DeviceProfile
from repro.hec.network import NetworkLink, paper_link_edge_cloud, paper_link_iot_edge
from repro.hec.simulation import HECSystem
from repro.hec.topology import HECTopology, build_three_layer_topology


@dataclass
class DelayBreakdown:
    """Composition of one end-to-end detection delay (all values in milliseconds)."""

    layer: int
    uplink_ms: float = 0.0
    execution_ms: float = 0.0
    downlink_ms: float = 0.0
    hops: List[str] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.uplink_ms + self.execution_ms + self.downlink_ms


def end_to_end_delay(topology, layer, execution_ms, payload_bytes, include_downlink=True):
    """The reference delay the HEC kernel's ``request_delay_ms`` is pinned to:
    one request handled at ``layer``, hop by hop, with its breakdown."""
    if execution_ms < 0:
        raise ConfigurationError(f"execution_ms must be non-negative, got {execution_ms}")
    links = topology.links_to(layer)
    uplink_ms = 0.0
    for link in links:
        uplink_ms += link.transfer_delay_ms(payload_bytes)
    hops = [f"{link.name}:up" for link in links]
    downlink_ms = 0.0
    if include_downlink:
        for link in reversed(links):
            downlink_ms += link.transfer_delay_ms(RESULT_PAYLOAD_BYTES)
        hops += [f"{link.name}:down" for link in reversed(links)]
    return DelayBreakdown(layer, uplink_ms, float(execution_ms), downlink_ms, hops)


def _tiny_detectors(window_size=10, rng_seed=0):
    """Three tiny fitted autoencoders, one per tier, bottom-up."""
    rng = np.random.default_rng(rng_seed)
    train = rng.normal(size=(20, window_size))
    detectors = []
    for layer, hidden in enumerate(((3,), (6,), (8,))):
        detector = AutoencoderDetector(window_size=window_size, hidden_sizes=hidden, seed=layer)
        detector.fit(train, epochs=5, batch_size=8)
        detectors.append(detector)
    return detectors


class TestDeployment:
    def test_deploys_every_layer(self, topology):
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        assert [d.layer for d in deployments] == [0, 1, 2]

    def test_quantizes_below_cloud_by_default(self, topology):
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        assert deployments[0].quantized and deployments[1].quantized
        assert not deployments[2].quantized
        assert deployments[0].quantization is not None
        assert deployments[2].quantization is None

    def test_quantization_disabled(self):
        # Use FP32-friendly devices so nothing requires quantisation.
        devices = [
            DeviceProfile(name=f"d{i}", tier=t, throughput_params_per_ms=1e4, memory_mb=1024)
            for i, t in enumerate(("iot", "edge", "cloud"))
        ]
        links = [NetworkLink("a", 1.0), NetworkLink("b", 1.0)]
        topology = HECTopology(devices=devices, links=links)
        deployments = deploy_detectors(
            _tiny_detectors(), topology, workload="univariate",
            quantize_below_layer=0,
        )
        assert not any(d.quantized for d in deployments)

    def test_calibrated_execution_times_resolved(self, topology):
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        assert deployments[0].execution_time_ms == pytest.approx(12.4)
        assert deployments[1].execution_time_ms == pytest.approx(7.4)
        assert deployments[2].execution_time_ms == pytest.approx(4.5)

    @pytest.mark.parametrize("count", [1, 4])
    def test_detector_count_mismatch_rejected(self, topology, count):
        detectors = [
            AutoencoderDetector(window_size=5, hidden_sizes=(2,), seed=seed)
            for seed in range(count)
        ]
        with pytest.raises(DeploymentError, match=f"{count} detectors for a 3-layer"):
            deploy_detectors(detectors, topology, workload="univariate")

    def test_memory_budget_enforced(self):
        tiny_device = DeviceProfile(
            name="tiny", tier="iot", throughput_params_per_ms=1.0, memory_mb=0.0001
        )
        devices = [tiny_device,
                   DeviceProfile(name="e", tier="edge", throughput_params_per_ms=1.0, memory_mb=100),
                   DeviceProfile(name="c", tier="cloud", throughput_params_per_ms=1.0, memory_mb=100)]
        links = [NetworkLink("a", 1.0), NetworkLink("b", 1.0)]
        topology = HECTopology(devices=devices, links=links)
        with pytest.raises(DeploymentError):
            deploy_detectors(_tiny_detectors(), topology, workload="univariate")

    @pytest.mark.parametrize("quantize_below_layer, fits", [(1, True), (0, False)])
    def test_memory_check_reads_the_deployed_bytes(self, quantize_below_layer, fits):
        """Three bytes a parameter hold the FP16 model (2) but not the FP32 one (4)."""
        detectors = _tiny_detectors()
        budget_mb = 3 * detectors[0].parameter_count() / (1024 * 1024)
        devices = [DeviceProfile(name="tight", tier="iot", throughput_params_per_ms=1.0,
                                 memory_mb=budget_mb)] + [
            DeviceProfile(name=name, tier=name, throughput_params_per_ms=1.0, memory_mb=100)
            for name in ("edge", "cloud")
        ]
        links = [NetworkLink("a", 1.0), NetworkLink("b", 1.0)]
        topology = HECTopology(devices=devices, links=links)
        deploy = partial(deploy_detectors, detectors, topology, "univariate", quantize_below_layer)
        if fits:
            assert deploy()[0].model_bytes == 2 * detectors[0].parameter_count()
        else:
            with pytest.raises(DeploymentError, match="quantized=False.*'tight'"):
                deploy()

    def test_model_bytes_reflect_quantization(self, topology):
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        iot = deployments[0]
        cloud = deployments[2]
        assert iot.model_bytes == iot.detector.parameter_count() * 2
        assert cloud.model_bytes == cloud.detector.parameter_count() * 4


class TestDelay:
    def test_window_payload_bytes(self):
        assert window_payload_bytes((128, 18)) == 128 * 18 * 4
        assert window_payload_bytes((672,)) == 672 * 4

    def test_layer0_has_no_network_delay(self, topology):
        breakdown = end_to_end_delay(topology, layer=0, execution_ms=10.0, payload_bytes=1000.0)
        assert breakdown.uplink_ms == 0.0
        assert breakdown.downlink_ms == 0.0
        assert breakdown.total_ms == pytest.approx(10.0)

    def test_higher_layers_pay_more_network(self, topology):
        edge = end_to_end_delay(topology, 1, execution_ms=0.0, payload_bytes=0.0)
        topology.reset_links()
        cloud = end_to_end_delay(topology, 2, execution_ms=0.0, payload_bytes=0.0)
        assert cloud.total_ms > edge.total_ms
        assert edge.uplink_ms >= 125.0

    def test_paper_univariate_edge_delay_shape(self, topology):
        """Edge total ≈ 250 ms network + 7.4 ms execution (Table II: 257.4 ms)."""
        # First transfer pays the connection setup; use a second one for steady state.
        end_to_end_delay(topology, 1, execution_ms=7.4, payload_bytes=672 * 4)
        steady = end_to_end_delay(topology, 1, execution_ms=7.4, payload_bytes=672 * 4)
        assert steady.total_ms == pytest.approx(257.43, abs=2.0)

    def test_paper_univariate_cloud_delay_shape(self, topology):
        end_to_end_delay(topology, 2, execution_ms=4.5, payload_bytes=672 * 4)
        steady = end_to_end_delay(topology, 2, execution_ms=4.5, payload_bytes=672 * 4)
        assert steady.total_ms == pytest.approx(504.5, abs=3.0)

    def test_hops_recorded(self, topology):
        breakdown = end_to_end_delay(topology, 2, execution_ms=1.0, payload_bytes=10.0)
        assert "iot-edge:up" in breakdown.hops
        assert "edge-cloud:up" in breakdown.hops
        assert "iot-edge:down" in breakdown.hops

    def test_negative_execution_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            end_to_end_delay(topology, 0, execution_ms=-1.0, payload_bytes=0.0)

    def test_downlink_optional(self, topology):
        with_down = end_to_end_delay(topology, 1, execution_ms=0.0, payload_bytes=0.0)
        topology.reset_links()
        without_down = end_to_end_delay(
            topology, 1, execution_ms=0.0, payload_bytes=0.0, include_downlink=False
        )
        assert without_down.total_ms < with_down.total_ms


def _links(health):
    if health == "jittery":
        return [
            NetworkLink("iot-edge", 125.0, 100.0, jitter_ms=4.0, connection_setup_ms=3.0, rng=1),
            NetworkLink("edge-cloud", 125.0, jitter_ms=7.0, connection_setup_ms=3.0, rng=2),
        ]
    links = [paper_link_iot_edge(), paper_link_edge_cloud()]
    if health == "degraded":
        links[1].set_status("degraded", factor=2.5)
    return links


class TestKernelDelays:
    """A request's delay has one definition: the kernel's delays are, bit for
    bit, ``end_to_end_delay(...).total_ms`` of the same requests in order."""

    @pytest.fixture(scope="class")
    def detectors(self):
        return _tiny_detectors(window_size=10)

    @pytest.mark.parametrize("health", ["healthy", "degraded", "jittery"])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_batch_delays_are_end_to_end_delays(self, detectors, health, layer, n):
        topology = build_three_layer_topology(links=_links(health))
        system = HECSystem(topology, deploy_detectors(detectors, topology, workload="univariate"))
        twin = copy.deepcopy(topology)
        execution_ms = system.deployment_at(layer).execution_time_ms
        for _ in range(2):  # the first batch pays connection setup, the second does not
            delays = system.detect_batch(layer, np.zeros((n, 10))).delays_ms
            expected = [
                end_to_end_delay(twin, layer, execution_ms, window_payload_bytes((10,))).total_ms
                for _ in range(n)
            ]
            assert delays.tolist() == expected
        assert [link.snapshot() for link in topology.links] == [
            link.snapshot() for link in twin.links
        ]


class TestHECSystem:
    @pytest.fixture()
    def system(self):
        topology = build_three_layer_topology()
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        return HECSystem(topology, deployments)

    def test_detect_batch_returns_arrays(self, system):
        window = np.random.default_rng(0).normal(size=10)
        result = system.detect_batch(1, window[None])
        assert result.layer == 1 and result.n == 1
        assert result.predictions[0] in (0, 1)
        assert result.delays_ms[0] > 0.0

    def test_results_are_per_call(self, system):
        windows = np.zeros((2, 10))
        first = system.detect_batch(0, windows)
        second = system.detect_batch(2, windows[:1])
        assert [(r.layer, r.n) for r in (first, second)] == [(0, 2), (2, 1)]
        assert second.delays_ms[0] > first.delays_ms.max() > 0.0

    def test_expected_delay_ordering(self, system):
        shape = (10,)
        delays = [system.expected_delay_ms(layer, shape) for layer in range(3)]
        assert delays[0] < delays[1] < delays[2]

    def test_expected_delay_matches_paper_shape(self, system):
        shape = (672,)
        assert system.expected_delay_ms(0, shape) == pytest.approx(12.4, abs=0.1)
        assert system.expected_delay_ms(1, shape) == pytest.approx(257.4, abs=2.0)
        assert system.expected_delay_ms(2, shape) == pytest.approx(504.5, abs=3.0)

    def test_expected_delay_leaves_the_links_alone(self, system):
        before = [link.snapshot() for link in system.topology.links]
        system.expected_delay_ms(2, (10,))
        assert [link.snapshot() for link in system.topology.links] == before

    def test_unknown_layer_rejected(self, system):
        with pytest.raises(SchedulingError):
            system.detect_batch(5, np.zeros((1, 10)))

    def test_reset_clears_state(self, system):
        cold = system.detect_batch(1, np.zeros((1, 10)))
        system.topology.links[0].set_status("degraded", factor=2.0)
        system.reset()
        again = system.detect_batch(1, np.zeros((1, 10)))
        assert np.array_equal(again.delays_ms, cold.delays_ms)  # setup paid, fault gone

    def test_snapshot_holds_no_tallies(self, system):
        """A checkpoint carries the failover policy and link state, no tallies."""
        system.detect_batch(2, np.zeros((3, 10)))
        snapshot = system.snapshot_state()
        assert sorted(snapshot) == [
            "failover_retries", "links", "retry_timeout_ms", "state_version",
        ]
        assert sorted(snapshot["links"][0]) == [
            "connection_established", "degraded_factor", "rng_state", "status",
        ]

    def test_duplicate_deployment_rejected(self):
        topology = build_three_layer_topology()
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        with pytest.raises(DeploymentError):
            HECSystem(topology, deployments + deployments[:1])

    def test_missing_deployment_rejected(self):
        topology = build_three_layer_topology()
        deployments = deploy_detectors(_tiny_detectors(), topology, workload="univariate")
        with pytest.raises(DeploymentError):
            HECSystem(topology, deployments[:2])

    def test_escalation_delay_included(self, system):
        window = np.zeros((1, 10))
        first = system.detect_batch(0, window)
        alone = system.detect_batch(1, window)
        system.reset()
        second = system.detect_batch(1, window, escalated_ms=first.delays_ms)
        assert second.delays_ms[0] == pytest.approx(alone.delays_ms[0] + first.delays_ms[0])
