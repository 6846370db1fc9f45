"""Timing-simulator configuration.

These knobs model the second-order effects that the paper's metrics
deliberately ignore (Section 5.3) — finite memory bandwidth,
coalescing, SFU throughput, cache conflicts.  Keeping them out of the
metrics and in the simulator is what makes the Pareto-pruning result a
measurement rather than a tautology.
"""

from __future__ import annotations

import dataclasses

from repro.arch.constants import GEFORCE_8800_GTX, DeviceSpec


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Cost model of the timing simulator."""

    device: DeviceSpec = GEFORCE_8800_GTX

    # A warp issues over four cycles on the eight SPs (Section 2.1).
    issue_cycles_per_instruction: int = 4

    # Two SFUs per SM: a 32-thread warp's transcendental takes 16
    # cycles of SFU throughput, and its result is not forwardable to a
    # dependent instruction until the SFU pipeline drains — with few
    # resident warps that latency is exposed (the utilization collapse
    # of Figure 5).
    sfu_cycles_per_instruction: int = 16
    sfu_result_latency: int = 36

    # Uncoalesced warp accesses are split into per-thread DRAM
    # transactions padded to the 32-byte minimum segment: a 4-byte
    # word costs eight times its size in interface traffic on the G80.
    uncoalesced_traffic_factor: float = 8.0

    # Barrier-phased kernels issue their loads in bursts while other
    # SMs are in compute phases, so short bursts are served well above
    # one SM's long-run fair share of the interface.  The token-bucket
    # model serves up to ``burst_window_bytes`` at ``burst_factor``
    # times the fair share before throttling to the sustained rate.
    bandwidth_burst_factor: float = 4.0
    burst_window_bytes: float = 8192.0

    # Constant-cache access conflict serialization (Table 1: "the
    # cache is single-ported, so simultaneous requests within an SM
    # must be to the same address or delays will occur").  1 = no
    # conflicts; k charges each constant load k issue slots.
    constant_conflict_ways: int = 1

    # Shared-memory bank serialization (Table 1: 16 banks; "it is
    # often possible to organize both threads and data such that bank
    # conflicts seldom or never occur" — hence the default of 1).
    # k charges each shared access k issue slots.
    shared_bank_conflict_ways: int = 1

    # Texture hits come from the per-two-SM cache, so they carry
    # latency but do not consume DRAM bandwidth.
    texture_latency_cycles: int = 120

    # How many full SM residencies to simulate before extrapolating
    # steady-state throughput to the whole grid.
    simulated_waves: int = 2

    def __post_init__(self) -> None:
        if self.issue_cycles_per_instruction < 1:
            raise ValueError("issue_cycles_per_instruction must be >= 1")
        if self.bandwidth_burst_factor <= 0.0:
            raise ValueError("bandwidth_burst_factor must be > 0")
        for name in ("sfu_cycles_per_instruction", "sfu_result_latency",
                     "uncoalesced_traffic_factor", "burst_window_bytes",
                     "texture_latency_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.constant_conflict_ways < 1:
            raise ValueError("constant_conflict_ways must be >= 1")
        if self.shared_bank_conflict_ways < 1:
            raise ValueError("shared_bank_conflict_ways must be >= 1")
        if self.simulated_waves < 1:
            raise ValueError("simulated_waves must be >= 1")

    @property
    def global_latency_cycles(self) -> int:
        return self.device.global_latency_cycles

    @property
    def bandwidth_bytes_per_cycle_per_sm(self) -> float:
        """Each SM's fair share of the 86.4 GB/s DRAM interface."""
        return self.device.bytes_per_cycle / self.device.num_sms


DEFAULT_SIM_CONFIG = SimConfig()
