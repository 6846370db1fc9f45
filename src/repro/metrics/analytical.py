"""A closed-form performance model — the paper's Section 4 future work.

"We are developing a more detailed cost model to achieve more precise
results."  This module is that next step: instead of two partial
metrics it produces one time estimate per configuration, built from
the same static inputs (-ptx profile, -cubin resources) plus the
machine constants.  It sits between the metrics (cheap, partial) and
the discrete-event simulator (expensive, detailed):

    cycles/block = max(issue, SFU, bandwidth) + exposed latency

* issue      — every instruction takes one 4-cycle slot per warp;
* SFU        — transcendentals at 16 cycles/warp-instruction on the SFUs;
* bandwidth  — effective DRAM bytes at the SM's fair share;
* exposure   — per region, the fraction of the blocking latency that
  the other resident warps (Equation 2's bracket) cannot cover.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cubin.resources import ResourceUsage, cubin_info
from repro.ir.kernel import Kernel
from repro.ptx.analysis import ExecutionProfile, profile_kernel
from repro.ptx.isa import InstrClass
from repro.ptx.view import KernelView
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig


@dataclasses.dataclass(frozen=True)
class AnalyticalEstimate:
    """One configuration's modeled execution time."""

    cycles: float
    seconds: float
    bound: str                       # 'issue' | 'sfu' | 'bandwidth'
    issue_cycles: float
    sfu_cycles: float
    bandwidth_cycles: float
    exposed_latency_cycles: float
    blocks_per_sm_total: int


def analytical_estimate(
    kernel: Kernel,
    config: SimConfig = DEFAULT_SIM_CONFIG,
    resources: Optional[ResourceUsage] = None,
    profile: Optional[ExecutionProfile] = None,
) -> AnalyticalEstimate:
    """Estimate a kernel's time without event-driven simulation.

    Raises LaunchError (via occupancy) for invalid configurations.
    """
    import math

    view = KernelView(kernel)
    if resources is None:
        resources = cubin_info(kernel, view=view)
    occupancy = resources.occupancy(config.device)
    if profile is None:
        profile = profile_kernel(kernel, view=view)

    warps = occupancy.warps_per_block
    issue = profile.instructions * config.issue_cycles_per_instruction * warps

    sfu_count = profile.mix.get(InstrClass.SFU, 0.0)
    sfu = sfu_count * config.sfu_cycles_per_instruction * warps

    traffic = profile.traffic
    uncoalesced = traffic.uncoalesced_load_bytes + traffic.uncoalesced_store_bytes
    effective_bytes = (
        traffic.total_bytes - uncoalesced
        + uncoalesced * config.uncoalesced_traffic_factor
    ) * kernel.threads_per_block
    bandwidth = effective_bytes / config.bandwidth_bytes_per_cycle_per_sm

    # Latency exposure: a warp blocks once per region; the other
    # resident warps can cover `bracket * region_issue` cycles of it.
    # The latency being hidden depends on what delimits the regions:
    # DRAM loads when the kernel has any, otherwise the SFU pipeline
    # (the Section 4 rule for which instructions count as blocking).
    bracket = (warps - 1) / 2.0 + (occupancy.blocks_per_sm - 1) * warps
    region_issue = (
        profile.instructions_per_region
        * config.issue_cycles_per_instruction
    )
    hidden = bracket * region_issue
    if view.has_long_latency:
        blocking_latency = float(config.global_latency_cycles)
    else:
        blocking_latency = float(config.sfu_result_latency)
    exposure_per_region = max(0.0, blocking_latency - hidden)
    exposure = exposure_per_region * profile.regions

    components = {
        "issue": issue,
        "sfu": sfu,
        "bandwidth": bandwidth,
    }
    bound = max(components, key=lambda k: components[k])
    per_block = components[bound] + exposure

    blocks_per_sm_total = math.ceil(
        kernel.num_blocks / config.device.num_sms
    )
    cycles = per_block * blocks_per_sm_total
    return AnalyticalEstimate(
        cycles=cycles,
        seconds=config.device.cycles_to_seconds(cycles),
        bound=bound,
        issue_cycles=issue,
        sfu_cycles=sfu,
        bandwidth_cycles=bandwidth,
        exposed_latency_cycles=exposure,
        blocks_per_sm_total=blocks_per_sm_total,
    )
