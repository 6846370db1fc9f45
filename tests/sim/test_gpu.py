"""Whole-GPU simulation: occupancy, extrapolation, invalid configs."""

import dataclasses

import pytest

from repro.arch import LaunchError
from repro.sim import DEFAULT_SIM_CONFIG, SimConfig, simulate_kernel
from tests.conftest import build_saxpy, build_tiled_matmul


class TestSimulateKernel:
    def test_result_fields(self):
        result = simulate_kernel(build_tiled_matmul())
        assert result.kernel_name == "mm_test"
        assert result.cycles > 0
        assert result.seconds == pytest.approx(
            result.cycles / (DEFAULT_SIM_CONFIG.device.clock_ghz * 1e9)
        )
        assert result.milliseconds == pytest.approx(result.seconds * 1e3)
        assert result.occupancy.blocks_per_sm == 2

    def test_deterministic(self):
        first = simulate_kernel(build_tiled_matmul())
        second = simulate_kernel(build_tiled_matmul())
        assert first.cycles == second.cycles

    def test_scales_with_grid(self):
        # 64 -> 128 quadruples the per-SM block count (16 vs 64 blocks
        # over 16 SMs) and doubles the work per block.
        small = simulate_kernel(build_tiled_matmul(n=64))
        large = simulate_kernel(build_tiled_matmul(n=128))
        assert large.cycles > small.cycles * 6

    def test_invalid_configuration_raises(self):
        from repro.cubin.resources import ResourceUsage

        kernel = build_tiled_matmul()
        heavy = ResourceUsage(
            registers_per_thread=40,
            shared_memory_per_block=2088,
            threads_per_block=256,
        )
        with pytest.raises(LaunchError):
            simulate_kernel(kernel, resources=heavy)

    def test_block_sampling_bounded_by_grid(self):
        result = simulate_kernel(build_saxpy())
        assert result.blocks_sampled <= result.blocks_per_sm_total
        assert result.blocks_sampled >= 1


class TestConfigSensitivity:
    def test_slower_clock_means_more_seconds(self):
        from repro.arch import DeviceSpec

        slow_device = DeviceSpec(clock_ghz=0.675)
        slow = simulate_kernel(
            build_tiled_matmul(),
            dataclasses.replace(DEFAULT_SIM_CONFIG, device=slow_device),
        )
        fast = simulate_kernel(build_tiled_matmul())
        assert slow.seconds > fast.seconds

    def test_higher_latency_hurts(self):
        from repro.arch import DeviceSpec

        laggy = dataclasses.replace(
            DEFAULT_SIM_CONFIG,
            device=DeviceSpec(global_latency_cycles=1000),
        )
        assert (
            simulate_kernel(build_tiled_matmul(), laggy).cycles
            > simulate_kernel(build_tiled_matmul()).cycles
        )

    def test_config_validation(self):
        for bad in ({"constant_conflict_ways": 0}, {"simulated_waves": 0},
                    {"issue_cycles_per_instruction": 0},
                    {"bandwidth_burst_factor": 0.0},
                    {"sfu_result_latency": -1},
                    {"burst_window_bytes": -1.0}):
            with pytest.raises(ValueError):
                SimConfig(**bad)
