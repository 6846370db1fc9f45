"""Properties of the GeForce 8800 memory spaces (Table 1 of the paper)."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict

from repro.arch.constants import GEFORCE_8800_GTX, DeviceSpec


class MemorySpace(enum.Enum):
    """The addressable memory spaces of the CUDA programming model."""

    GLOBAL = "global"
    SHARED = "shared"
    CONSTANT = "constant"
    TEXTURE = "texture"
    LOCAL = "local"
    # Register file: not addressable, but a useful uniform destination
    # for latency queries.
    REGISTER = "register"

    # Identity hash at C level (see DataType.__hash__).
    __hash__ = object.__hash__

    @property
    def is_on_chip(self) -> bool:
        return self in (MemorySpace.SHARED, MemorySpace.CONSTANT,
                        MemorySpace.TEXTURE, MemorySpace.REGISTER)

    @property
    def is_read_only(self) -> bool:
        return self in (MemorySpace.CONSTANT, MemorySpace.TEXTURE)


@dataclasses.dataclass(frozen=True)
class MemoryProperties:
    """Latency and behavioural description of one memory space."""

    space: MemorySpace
    latency_cycles: int
    read_only: bool
    description: str


def memory_properties(device: DeviceSpec = GEFORCE_8800_GTX) -> Dict[MemorySpace, MemoryProperties]:
    """Table 1 as a mapping from memory space to its properties.

    Register-like latencies are modeled as 0 extra cycles beyond issue;
    local memory shares the global DRAM path (it backs register spills).
    """
    return {
        MemorySpace.GLOBAL: MemoryProperties(
            MemorySpace.GLOBAL, device.global_latency_cycles, False,
            "off-chip DRAM; coalesced when threads access contiguous words"),
        MemorySpace.SHARED: MemoryProperties(
            MemorySpace.SHARED, 0, False,
            "16KB per-SM scratchpad, 16 banks, ~register latency"),
        MemorySpace.CONSTANT: MemoryProperties(
            MemorySpace.CONSTANT, 0, True,
            "8KB per-SM cache over 64KB constant space; single-ported"),
        MemorySpace.TEXTURE: MemoryProperties(
            MemorySpace.TEXTURE, device.texture_latency_cycles, True,
            "16KB cache per two SMs; 2D locality"),
        MemorySpace.LOCAL: MemoryProperties(
            MemorySpace.LOCAL, device.global_latency_cycles, False,
            "register-spill space in off-chip DRAM"),
        MemorySpace.REGISTER: MemoryProperties(
            MemorySpace.REGISTER, 0, False, "per-thread register file"),
    }


SHARED_MEMORY_BANKS = 16
"""Number of shared-memory banks on the 8800 (Table 1)."""
