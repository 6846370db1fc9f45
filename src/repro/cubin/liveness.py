"""Live-interval analysis over structured kernel IR.

Registers-per-thread is the quantity the paper reads off ``nvcc
-cubin``; we reproduce it with a classical live-interval model.  The
kernel's :class:`~repro.ptx.view.KernelView` linearizes the structured
IR depth-first, each virtual register gets the interval spanning its
accesses, and intervals are widened by the loop rules:

* a register accessed both inside and outside a loop is live through
  the entire loop (live-in or live-out of the loop), and
* a register whose first access within a loop body is a read while it
  is also written in that body is loop-carried, hence live through the
  entire loop.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.ir.kernel import Kernel
from repro.ir.types import DataType
from repro.ir.values import VirtualRegister
from repro.ptx.isa import InstrClass
from repro.ptx.view import LOOP, KernelView


@dataclasses.dataclass
class LiveInterval:
    """Half-open is avoided on purpose: both endpoints are occupied."""

    register: VirtualRegister
    start: int
    end: int

    def overlaps(self, other: "LiveInterval") -> bool:
        return self.start <= other.end and other.start <= self.end

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclasses.dataclass
class LivenessInfo:
    """Live intervals plus the structure needed for pipelining analysis."""

    intervals: List[LiveInterval]
    loops: List[Tuple[int, int]]
    barrier_positions: List[int]
    #: every register's def positions, ascending
    def_positions: Dict[VirtualRegister, List[int]]


def analyze_liveness(
    kernel: Kernel,
    include_predicates: bool = False,
    view: Optional[KernelView] = None,
) -> LivenessInfo:
    """Compute widened live intervals for every virtual register.

    Predicate registers live in the 8800's separate predicate file and
    are excluded from the 32-bit register count unless requested.

    Positions are the ``view``'s program points plus one: each
    instruction, loop header, loop latch and ``If`` takes one.  An
    instruction reads, then writes; a loop header writes its counter,
    then reads its register bounds; a latch reads the counter (and a
    register stop, re-read by the exit test); an ``If`` reads its
    condition.  ``view`` is the kernel's
    :class:`~repro.ptx.view.KernelView` when the caller has one.

    A register's accesses are ascending, so each loop rule needs no
    scan of them: a loop holds all of them iff it spans the first and
    the last, and one bisection tells whether a loop that spans only
    part of that range holds any.
    """
    if view is None:
        view = KernelView(kernel)
    count = len(view.registers)
    positions: List[Optional[List[int]]] = [None] * count
    defs: List[Optional[List[int]]] = [None] * count
    written_first = [False] * count
    order: List[int] = []       # ids in first-access order

    def write(rid: int, position: int) -> None:
        if positions[rid] is None:
            positions[rid] = [position]
            defs[rid] = [position]
            written_first[rid] = True
            order.append(rid)
        else:
            positions[rid].append(position)
            defs[rid].append(position)

    kinds = view.kinds
    dests = view.dests
    for point, read in enumerate(view.reads):
        position = point + 1
        dest = dests[point]
        if kinds[point] == LOOP:
            # The header writes the counter before reading the bounds.
            write(dest, position)
            dest = -1
        for rid in read:
            accesses = positions[rid]
            if accesses is None:
                positions[rid] = [position]
                defs[rid] = []
                order.append(rid)
            else:
                accesses.append(position)
        if dest >= 0:
            write(dest, position)

    loops = view.loops
    registers = view.registers
    intervals = []
    for rid in order:
        register = registers[rid]
        if register.dtype is DataType.PRED and not include_predicates:
            continue
        accesses = positions[rid]
        first = start = accesses[0]
        last = end = accesses[-1]
        # Live through a loop holding every access only if carried by
        # it: the first access is a read and the body also writes it.
        carried = not written_first[rid] and bool(defs[rid])
        for loop_start, loop_end in loops:
            if loop_end < first or last < loop_start:
                continue
            if loop_start <= first and last <= loop_end:
                if not carried:
                    continue
            elif accesses[bisect_left(accesses, loop_start)] > loop_end:
                # Accessed before and after the loop, never inside it.
                continue
            if loop_start < start:
                start = loop_start
            if loop_end > end:
                end = loop_end
        intervals.append(LiveInterval(register, start, end))
    return LivenessInfo(
        intervals=intervals,
        loops=list(loops),
        barrier_positions=list(view.barriers),
        def_positions={registers[rid]: defs[rid] for rid in order},
    )


def live_intervals(
    kernel: Kernel,
    include_predicates: bool = False,
    view: Optional[KernelView] = None,
) -> List[LiveInterval]:
    """Widened live intervals only (see analyze_liveness)."""
    return analyze_liveness(kernel, include_predicates, view=view).intervals


def pipeline_register_pressure(
    kernel: Kernel,
    liveness: Optional[LivenessInfo] = None,
    view: Optional[KernelView] = None,
) -> int:
    """Extra registers the runtime scheduler's pipelining consumes.

    The paper documents that the CUDA runtime reschedules operations to
    hide intra-thread stalls and that this "may increase register usage
    and potentially reduce the number of thread blocks on each SM"
    (Section 3.1), in ways invisible to the developer (Section 3.2).
    We model the dominant mechanism — software pipelining of
    barrier-delimited loops:

    * the runtime pipelines a loop only when there is DRAM latency to
      cover: at least one global-load result must already be in flight
      across iterations (which is exactly what the prefetching
      transformation creates);
    * pipelining requires a straight-line loop body: a nested loop
      fences the scheduler's code motion, so only barrier loops whose
      bodies are fully unrolled qualify;
    * every value written inside a qualifying loop and live across the
      whole of it must be double-buffered (current + next copy): +1
      register each;
    * the in-flight *global-load* values are pipelined one stage
      deeper to cover the DRAM latency: +2 registers each.

    Kernels without barriers (CP, SAD, MRI-FHD) are unaffected.  For
    matrix multiplication this reproduces the paper's Figure 3
    phenomenon exactly: the completely-unrolled prefetched 1x4 kernel
    holds five global values in flight, and the runtime's pipelining
    pushes it past the register file — "prefetching increased register
    usage beyond what is available, producing an invalid executable".

    ``liveness`` is the kernel's ``analyze_liveness`` (predicates
    excluded), when the caller has it already; otherwise a kernel
    without a barrier returns 0 before any analysis.  ``view`` is the
    kernel's :class:`~repro.ptx.view.KernelView`, when the caller has
    it.
    """
    if view is None:
        view = KernelView(kernel)
    if liveness is None:
        if not view.barriers:
            return 0
        liveness = analyze_liveness(kernel, view=view)
    if not liveness.barrier_positions:
        return 0
    straight_line_barrier_loops = []
    for start, end in liveness.loops:
        if not any(start <= b <= end for b in liveness.barrier_positions):
            continue
        has_nested = any(
            other != (start, end) and start <= other[0] and other[1] <= end
            for other in liveness.loops
        )
        if not has_nested:
            straight_line_barrier_loops.append((start, end))
    if not straight_line_barrier_loops:
        return 0

    registers = view.registers
    dests = view.dests
    global_load_dests = {
        registers[dests[point]]
        for point, cls in enumerate(view.classes)
        if cls is InstrClass.GLOBAL_LOAD or cls is InstrClass.LOCAL_LOAD
    }

    def spanning_written(interval: LiveInterval, extent) -> bool:
        loop_start, loop_end = extent
        defs = liveness.def_positions.get(interval.register, [])
        written_inside = any(loop_start <= d <= loop_end for d in defs)
        return written_inside and (
            interval.start <= loop_start and interval.end >= loop_end
        )

    pressure = 0
    for extent in straight_line_barrier_loops:
        spanning = [iv for iv in liveness.intervals if spanning_written(iv, extent)]
        in_flight_loads = [
            iv for iv in spanning if iv.register in global_load_dests
        ]
        if not in_flight_loads:
            # Nothing to pipeline: the loop's loads complete within
            # their own iteration, so the scheduler leaves it alone.
            continue
        pressure += len(spanning) + len(in_flight_loads)
    return pressure


def max_pressure(intervals: List[LiveInterval]) -> int:
    """Maximum number of simultaneously-live registers."""
    events = []
    for interval in intervals:
        events.append((interval.start, 1))
        events.append((interval.end + 1, -1))
    events.sort()
    pressure = 0
    peak = 0
    for _, delta in events:
        pressure += delta
        peak = max(peak, pressure)
    return peak
