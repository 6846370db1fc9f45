"""One-call metric evaluation of a kernel configuration.

Mirrors the developer workflow of Section 4: compile with ``-cubin``
(resource usage -> B_SM, W_TB), compile with ``-ptx`` (instruction
stream -> Instr, Regions), then evaluate Equations 1 and 2.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.arch.constants import GEFORCE_8800_GTX, DeviceSpec
from repro.arch.occupancy import Occupancy
from repro.cubin.resources import ResourceUsage, cubin_info
from repro.ir.kernel import Kernel
from repro.metrics.bandwidth import BandwidthEstimate, estimate_bandwidth
from repro.metrics.efficiency import efficiency
from repro.metrics.utilization import utilization
from repro.ptx.analysis import ExecutionProfile, profile_kernel
from repro.ptx.view import KernelView


@dataclasses.dataclass(frozen=True)
class MetricReport:
    """Everything Section 4 computes for one configuration."""

    efficiency: float
    utilization: float
    instructions: float
    regions: int
    threads: int
    occupancy: Occupancy
    resources: ResourceUsage
    profile: ExecutionProfile
    bandwidth: BandwidthEstimate

    @property
    def warps_per_block(self) -> int:
        return self.occupancy.warps_per_block

    @property
    def blocks_per_sm(self) -> int:
        return self.occupancy.blocks_per_sm

    def dominates(self, other: "MetricReport") -> bool:
        """Pareto dominance: at least as good on both axes, better on one."""
        if self.efficiency < other.efficiency or self.utilization < other.utilization:
            return False
        return (
            self.efficiency > other.efficiency
            or self.utilization > other.utilization
        )


def evaluate_kernel(
    kernel: Kernel,
    device: DeviceSpec = GEFORCE_8800_GTX,
    reschedule_seed: int = None,
    view: Optional[KernelView] = None,
) -> MetricReport:
    """Compute the Section 4 metrics for one kernel configuration.

    Raises LaunchError (via the occupancy calculation) for invalid
    executables, mirroring nvcc.  ``reschedule_seed`` engages the
    register allocator's runtime-perturbation hook (Section 3.2's
    "uncontrollable element").  One :class:`~repro.ptx.view.KernelView`
    serves both compiles: ``view`` when the caller has it, else a
    fresh one.
    """
    if view is None:
        view = KernelView(kernel)
    resources = cubin_info(kernel, reschedule_seed=reschedule_seed, view=view)
    occupancy = resources.occupancy(device)
    profile = profile_kernel(kernel, view=view)
    bandwidth = estimate_bandwidth(
        profile,
        threads_per_block=kernel.threads_per_block,
        blocks_per_sm=occupancy.blocks_per_sm,
        device=device,
    )
    return MetricReport(
        efficiency=efficiency(profile.instructions, kernel.total_threads),
        utilization=utilization(
            profile.instructions,
            profile.regions,
            occupancy.warps_per_block,
            occupancy.blocks_per_sm,
        ),
        instructions=profile.instructions,
        regions=profile.regions,
        threads=kernel.total_threads,
        occupancy=occupancy,
        resources=resources,
        profile=profile,
        bandwidth=bandwidth,
    )
