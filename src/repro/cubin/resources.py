"""The ``nvcc -cubin`` analogue: per-kernel resource usage report.

Section 2.3: "-cubin outputs the resource usage of GPU kernel code,
including the shared memory used per thread block and registers used
per thread ... We use the information provided by -cubin to calculate
the number of thread blocks that can simultaneously reside on each SM."
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.arch.constants import GEFORCE_8800_GTX, DeviceSpec
from repro.arch.occupancy import LaunchError, Occupancy, blocks_per_sm
from repro.cubin.liveness import analyze_liveness, pipeline_register_pressure
from repro.cubin.regalloc import allocate_intervals
from repro.ir.kernel import Kernel
from repro.ptx.view import KernelView

RESERVED_REGISTERS = 2
"""Registers the runtime reserves per thread (special-register staging)."""

SHARED_MEMORY_RUNTIME_BYTES = 40
"""Per-block shared memory the runtime claims for kernel parameters.

The paper's worked example reports 2088 bytes for a kernel whose
declared tiles occupy 2048 bytes; CUDA 1.0 stored kernel arguments and
launch bookkeeping in shared memory, accounting for the difference.
"""


@dataclasses.dataclass(frozen=True)
class ResourceUsage:
    """What -cubin reports for one compiled kernel configuration."""

    registers_per_thread: int
    shared_memory_per_block: int
    threads_per_block: int

    def occupancy(self, device: DeviceSpec = GEFORCE_8800_GTX) -> Occupancy:
        """B_SM and friends; raises LaunchError for invalid executables."""
        return blocks_per_sm(
            threads_per_block=self.threads_per_block,
            registers_per_thread=self.registers_per_thread,
            shared_memory_per_block=self.shared_memory_per_block,
            device=device,
        )

    def is_launchable(self, device: DeviceSpec = GEFORCE_8800_GTX) -> bool:
        try:
            self.occupancy(device)
        except LaunchError:
            return False
        return True


def cubin_info(
    kernel: Kernel,
    reschedule_seed: Optional[int] = None,
    view: Optional[KernelView] = None,
) -> ResourceUsage:
    """Compile-time resource usage of a kernel (registers + shared mem).

    The register count has three components: the linear-scan
    allocation of the kernel's own virtual registers, the runtime's
    reserved registers, and one double-buffer register for every value
    the runtime's scheduler keeps in flight across a barrier (see
    ``pipeline_register_pressure``) — the paper's Section 3.1/3.2
    observation that runtime scheduling inflates register usage beyond
    developer control.  One liveness analysis serves both the
    allocation and the pipelining estimate; ``view`` is the kernel's
    :class:`~repro.ptx.view.KernelView` when the caller has one.
    """
    if view is None:
        view = KernelView(kernel)
    liveness = analyze_liveness(kernel, view=view)
    allocation = allocate_intervals(liveness.intervals, reschedule_seed)
    pipelined = pipeline_register_pressure(kernel, liveness, view=view)
    return ResourceUsage(
        registers_per_thread=(
            allocation.registers_used + pipelined + RESERVED_REGISTERS
        ),
        shared_memory_per_block=(
            kernel.shared_memory_bytes + SHARED_MEMORY_RUNTIME_BYTES
        ),
        threads_per_block=kernel.threads_per_block,
    )
