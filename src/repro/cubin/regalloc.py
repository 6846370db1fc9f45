"""Linear-scan register allocation onto the 8800 register file.

The CUDA runtime's allocator is invisible to developers (Section 2.3:
"an uncontrollable element"); ours is deterministic so experiments are
reproducible, and a seedable perturbation hook reproduces the paper's
observation that small code changes can nudge register counts.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import Dict, List, Optional, Tuple

from repro.cubin.liveness import LiveInterval, live_intervals
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

    ``active`` is a heap of ``(end, physical)`` and ``free`` a heap of
    physical registers, so each interval costs O(log n): every
    interval that ended before this one starts is retired, then the
    lowest free register is taken (a fresh one if none is free).  The
    same sweep counts the most intervals live at once, which the
    register count must equal.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    free: List[int] = []
    next_fresh = 0
    active: List[Tuple[int, int]] = []
    assignment: Dict[VirtualRegister, int] = {}
    peak = 0

    for interval in ordered:
        start = interval.start
        while active and active[0][0] < start:
            heapq.heappush(free, heapq.heappop(active)[1])
        if free:
            physical = heapq.heappop(free)
        else:
            physical = next_fresh
            next_fresh += 1
        assignment[interval.register] = physical
        heapq.heappush(active, (interval.end, physical))
        # ``active`` now holds exactly the intervals live at ``start``.
        if len(active) > peak:
            peak = len(active)

    assert next_fresh == peak, (
        "linear scan must color interval graphs optimally"
    )
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
    return linear_scan(intervals)
