"""Linear-scan register allocation onto the 8800 register file.

The CUDA runtime's allocator is invisible to developers (Section 2.3:
"an uncontrollable element"); ours is deterministic so experiments are
reproducible, and a seedable perturbation hook reproduces the paper's
observation that small code changes can nudge register counts.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional

from repro.cubin.liveness import LiveInterval, live_intervals, max_pressure
from repro.ir.kernel import Kernel
from repro.ir.values import VirtualRegister


@dataclasses.dataclass(frozen=True)
class RegisterAllocation:
    """Outcome of allocating one kernel's virtual registers."""

    assignment: Dict[VirtualRegister, int]
    registers_used: int

    def physical(self, register: VirtualRegister) -> int:
        return self.assignment[register]


def linear_scan(intervals: List[LiveInterval]) -> RegisterAllocation:
    """Classic linear scan; optimal for interval graphs.

    Registers are unbounded here — per-thread counts beyond the file
    size are legal; they simply make the occupancy calculation refuse
    to place any block (the paper's invalid-executable case).
    """
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    free: List[int] = []
    next_fresh = 0
    active: List[tuple] = []  # (end, physical)
    assignment: Dict[VirtualRegister, int] = {}

    for interval in ordered:
        still_active = []
        for end, physical in active:
            if end < interval.start:
                free.append(physical)
            else:
                still_active.append((end, physical))
        active = still_active
        if free:
            free.sort()
            physical = free.pop(0)
        else:
            physical = next_fresh
            next_fresh += 1
        assignment[interval.register] = physical
        active.append((interval.end, physical))

    return RegisterAllocation(assignment=assignment, registers_used=next_fresh)


def allocate(
    kernel: Kernel,
    reschedule_seed: Optional[int] = None,
) -> RegisterAllocation:
    """Allocate a kernel's registers (see :func:`allocate_intervals`)."""
    return allocate_intervals(live_intervals(kernel), reschedule_seed)


def allocate_intervals(
    intervals: List[LiveInterval],
    reschedule_seed: Optional[int] = None,
) -> RegisterAllocation:
    """Allocate registers given a kernel's live intervals.

    ``reschedule_seed`` models the CUDA runtime's opaque rescheduling:
    when given, interval ends are jittered by up to two positions before
    allocation, occasionally changing the register count — the paper's
    "non-uniform behavior" (Section 3.2).
    """
    if reschedule_seed is not None:
        rng = random.Random(reschedule_seed)
        intervals = [
            LiveInterval(iv.register, iv.start, iv.end + rng.randint(0, 2))
            for iv in intervals
        ]
    allocation = linear_scan(intervals)
    assert allocation.registers_used == max_pressure(intervals), (
        "linear scan must color interval graphs optimally"
    )
    return allocation
