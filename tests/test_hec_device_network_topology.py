"""Tests for the HEC device, network-link and topology models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hec.device import GPU_DEVBOX, JETSON_TX2, RASPBERRY_PI_3, DeviceProfile
from repro.hec.network import NetworkLink, paper_link_edge_cloud, paper_link_iot_edge
from repro.hec.topology import HECTopology, build_three_layer_topology


class TestDeviceProfile:
    def test_calibrated_execution_time_used(self):
        assert RASPBERRY_PI_3.execution_time_ms("univariate") == pytest.approx(12.4)
        assert JETSON_TX2.execution_time_ms("multivariate") == pytest.approx(417.3)
        assert GPU_DEVBOX.execution_time_ms("univariate") == pytest.approx(4.5)

    def test_paper_calibrations_cover_both_workloads(self):
        for device in (RASPBERRY_PI_3, JETSON_TX2, GPU_DEVBOX):
            assert {"univariate", "multivariate"} <= set(device.calibrated_execution_ms)

    def test_generic_model_uses_parameter_count(self):
        device = DeviceProfile(name="x", tier="iot", throughput_params_per_ms=1000.0, memory_mb=64)
        assert device.execution_time_ms("custom", parameter_count=5000) == pytest.approx(5.0)

    def test_generic_model_requires_parameter_count(self):
        device = DeviceProfile(name="x", tier="iot", throughput_params_per_ms=1000.0, memory_mb=64)
        with pytest.raises(ConfigurationError):
            device.execution_time_ms("custom")

    def test_can_host_memory_budget(self):
        device = DeviceProfile(name="x", tier="iot", throughput_params_per_ms=1.0, memory_mb=1.0)
        assert device.can_host(500_000, quantized=True)
        assert not device.can_host(2_000_000, quantized=True)

    def test_fp32_restriction(self):
        assert not RASPBERRY_PI_3.can_host(1000, quantized=False)
        assert RASPBERRY_PI_3.can_host(1000, quantized=True)
        assert GPU_DEVBOX.can_host(1000, quantized=False)

    def test_cloud_faster_than_iot(self):
        assert GPU_DEVBOX.execution_time_ms("univariate") < RASPBERRY_PI_3.execution_time_ms("univariate")
        assert GPU_DEVBOX.execution_time_ms("multivariate") < RASPBERRY_PI_3.execution_time_ms("multivariate")

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile(name="x", tier="iot", throughput_params_per_ms=0.0, memory_mb=64)
        with pytest.raises(ConfigurationError):
            DeviceProfile(
                name="x", tier="iot", throughput_params_per_ms=1.0, memory_mb=64,
                calibrated_execution_ms={"m": -1.0},
            )


class TestNetworkLink:
    def test_serialization_delay(self):
        link = NetworkLink("l", one_way_latency_ms=0.0, bandwidth_mbps=8.0)
        # 1000 bytes = 8000 bits at 8 Mbps -> 1 ms.
        assert link.serialization_delay_ms(1000) == pytest.approx(1.0)

    def test_transfer_includes_latency_and_serialization(self):
        link = NetworkLink("l", one_way_latency_ms=10.0, bandwidth_mbps=8.0)
        delay = link.transfer_delay_ms(1000)
        assert delay == pytest.approx(11.0)

    def test_connection_setup_paid_once_with_keepalive(self):
        link = NetworkLink("l", one_way_latency_ms=10.0, connection_setup_ms=5.0, keep_alive=True)
        first = link.transfer_delay_ms(0.0)
        second = link.transfer_delay_ms(0.0)
        assert first == pytest.approx(15.0)
        assert second == pytest.approx(10.0)

    def test_connection_setup_every_time_without_keepalive(self):
        link = NetworkLink("l", one_way_latency_ms=10.0, connection_setup_ms=5.0, keep_alive=False)
        assert link.transfer_delay_ms(0.0) == pytest.approx(15.0)
        assert link.transfer_delay_ms(0.0) == pytest.approx(15.0)

    def test_jitter_is_non_negative_addition(self):
        link = NetworkLink("l", one_way_latency_ms=10.0, jitter_ms=2.0, rng=0)
        delays = [link.transfer_delay_ms(0.0) for _ in range(50)]
        assert all(delay >= 10.0 for delay in delays)
        assert np.std(delays) > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkLink("l", one_way_latency_ms=-1.0)
        with pytest.raises(ConfigurationError):
            NetworkLink("l", one_way_latency_ms=1.0, bandwidth_mbps=0.0)
        with pytest.raises(ConfigurationError):
            NetworkLink("l", one_way_latency_ms=1.0).transfer_delay_ms(-1.0)

    def test_paper_links_reproduce_250ms_round_trips(self):
        iot_edge = paper_link_iot_edge()
        edge_cloud = paper_link_edge_cloud()
        assert 2 * iot_edge.one_way_latency_ms == pytest.approx(250.0)
        assert 2 * edge_cloud.one_way_latency_ms == pytest.approx(250.0)

    def test_config_serialisable(self):
        config = paper_link_iot_edge().get_config()
        assert config["name"] == "iot-edge"
        assert config["keep_alive"] is True


class TestTopology:
    def test_default_three_layers(self):
        topology = build_three_layer_topology()
        assert topology.n_layers == 3
        assert topology.device_at(0).tier == "iot"
        assert topology.device_at(2).tier == "cloud"

    def test_links_to_layer(self):
        topology = build_three_layer_topology()
        assert len(topology.links_to(0)) == 0
        assert len(topology.links_to(1)) == 1
        assert len(topology.links_to(2)) == 2

    def test_uplink_and_round_trip_latency(self):
        topology = build_three_layer_topology()
        assert topology.uplink_latency_ms(0) == 0.0
        assert topology.uplink_latency_ms(1) == pytest.approx(125.0)
        assert topology.uplink_latency_ms(2) == pytest.approx(250.0)
        assert topology.round_trip_latency_ms(2) == pytest.approx(500.0)

    def test_invalid_layer_index(self):
        topology = build_three_layer_topology()
        with pytest.raises(ConfigurationError):
            topology.device_at(3)
        with pytest.raises(ConfigurationError):
            topology.links_to(-1)

    def test_mismatched_links_rejected(self):
        with pytest.raises(ConfigurationError):
            HECTopology(devices=[RASPBERRY_PI_3, GPU_DEVBOX], links=[])

    def test_reset_links(self):
        topology = build_three_layer_topology()
        link = topology.links[0]
        cold = link.transfer_delay_ms(10.0)
        assert link.transfer_delay_ms(10.0) < cold
        topology.reset_links()
        assert link.transfer_delay_ms(10.0) == cold  # the setup is paid again

    def test_describe_mentions_devices(self):
        description = build_three_layer_topology().describe()
        assert "Raspberry Pi 3" in description
        assert "iot-edge" in description

    def test_custom_devices_and_links(self):
        device = DeviceProfile(name="only", tier="iot", throughput_params_per_ms=1.0, memory_mb=1.0)
        topology = HECTopology(devices=[device], links=[])
        assert topology.n_layers == 1
