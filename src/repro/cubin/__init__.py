"""Resource-usage estimation (the ``nvcc -cubin`` analogue)."""

from repro.cubin.liveness import (
    LiveInterval,
    LivenessInfo,
    analyze_liveness,
    live_intervals,
    max_pressure,
    pipeline_register_pressure,
)
from repro.cubin.regalloc import (
    RegisterAllocation,
    allocate,
    allocate_intervals,
    linear_scan,
)
from repro.cubin.resources import (
    RESERVED_REGISTERS,
    SHARED_MEMORY_RUNTIME_BYTES,
    ResourceUsage,
    cubin_info,
)

__all__ = [
    "RESERVED_REGISTERS",
    "SHARED_MEMORY_RUNTIME_BYTES",
    "LiveInterval",
    "LivenessInfo",
    "RegisterAllocation",
    "analyze_liveness",
    "pipeline_register_pressure",
    "ResourceUsage",
    "allocate",
    "allocate_intervals",
    "cubin_info",
    "linear_scan",
    "live_intervals",
    "max_pressure",
]
