"""PTX-level view of kernels: emission, the flat kernel view, and static
execution analysis."""

from repro.ptx.analysis import (
    ExecutionProfile,
    MemoryTraffic,
    count_instructions,
    count_regions,
    memory_traffic,
    profile_kernel,
)
from repro.ptx.emit import emit_ptx
from repro.ptx.isa import BLOCKING_CLASSES, InstrClass, classify, mnemonic
from repro.ptx.view import KernelView, ViewCache

__all__ = [
    "BLOCKING_CLASSES",
    "ExecutionProfile",
    "InstrClass",
    "KernelView",
    "MemoryTraffic",
    "ViewCache",
    "classify",
    "count_instructions",
    "count_regions",
    "emit_ptx",
    "memory_traffic",
    "mnemonic",
    "profile_kernel",
]
