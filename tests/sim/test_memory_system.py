"""Token-bucket DRAM model: bursts fast, sustained capped."""

import pytest

from tests.sim.memory_system import MemorySystem
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig


def make_memory(**overrides):
    config = SimConfig(**overrides) if overrides else DEFAULT_SIM_CONFIG
    return MemorySystem(config), config


class TestLatency:
    def test_zero_bytes_pays_latency_only(self):
        memory, _ = make_memory()
        assert memory.request(100.0, 0.0, 120.0) == 220.0
        assert memory.total_bytes == 0.0

    def test_single_request_latency_plus_service(self):
        memory, config = make_memory()
        burst_rate = (
            config.bandwidth_bytes_per_cycle_per_sm
            * config.bandwidth_burst_factor
        )
        completion = memory.request(0.0, 128.0, 250.0)
        assert completion == pytest.approx(128.0 / burst_rate + 250.0)


class TestBurstVsSustained:
    def test_short_burst_served_at_burst_rate(self):
        memory, config = make_memory()
        share = config.bandwidth_bytes_per_cycle_per_sm
        burst_rate = share * config.bandwidth_burst_factor
        first = memory.request(0.0, 1024.0, 0.0)
        assert first == pytest.approx(1024.0 / burst_rate)

    def test_sustained_traffic_throttles_to_share(self):
        memory, config = make_memory()
        share = config.bandwidth_bytes_per_cycle_per_sm
        total = 0.0
        completion = 0.0
        for _ in range(100):
            total += 4096.0
            completion = memory.request(0.0, 4096.0, 0.0)
        # Long-run throughput equals the fair share (modulo the window).
        assert completion >= total / share - config.burst_window_bytes / share

    def test_idle_time_does_not_bank_credit(self):
        memory, config = make_memory()
        share = config.bandwidth_bytes_per_cycle_per_sm
        window = config.burst_window_bytes / share
        # Saturate, wait a long time, then burst again: the new burst
        # must be served at burst rate (credit resets), not owe debt.
        for _ in range(50):
            memory.request(0.0, 4096.0, 0.0)
        later = memory._sustained_end + 10 * window
        burst_rate = share * config.bandwidth_burst_factor
        completion = memory.request(later, 1024.0, 0.0)
        assert completion == pytest.approx(later + 1024.0 / burst_rate)


class TestQueueing:
    def test_requests_serialize_on_the_pipe(self):
        memory, config = make_memory()
        first = memory.request(0.0, 2048.0, 0.0)
        second = memory.request(0.0, 2048.0, 0.0)
        assert second > first

    def test_counters(self):
        memory, _ = make_memory()
        memory.request(0.0, 100.0, 10.0)
        memory.request(0.0, 100.0, 10.0)
        assert memory.total_bytes == 200.0
        assert memory.busy_cycles > 0.0
