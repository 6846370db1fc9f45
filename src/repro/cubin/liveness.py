"""Live-interval analysis over structured kernel IR.

Registers-per-thread is the quantity the paper reads off ``nvcc
-cubin``; we reproduce it with a classical live-interval model.  The
structured IR is linearized depth-first, each virtual register gets the
interval spanning its accesses, and intervals are widened by the loop
rules:

* a register accessed both inside and outside a loop is live through
  the entire loop (live-in or live-out of the loop), and
* a register whose first access within a loop body is a read while it
  is also written in that body is loop-carried, hence live through the
  entire loop.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.statements import instructions as iter_instructions
from repro.ir.types import DataType
from repro.ir.values import VirtualRegister


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


class _Linearizer:
    """Walks the tree once, numbering statements in program order.

    Positions only grow during the walk, so every register's access
    positions are recorded in ascending order.
    """

    def __init__(self) -> None:
        self.position = 0
        self.positions: Dict[VirtualRegister, List[int]] = {}
        self.def_positions: Dict[VirtualRegister, List[int]] = {}
        #: registers whose first access is a write
        self.written_first: Set[VirtualRegister] = set()
        self.loops: List[Tuple[int, int]] = []
        self.barrier_positions: List[int] = []

    def _read(self, register: VirtualRegister) -> None:
        positions = self.positions.get(register)
        if positions is None:
            self.positions[register] = [self.position]
            self.def_positions[register] = []
        else:
            positions.append(self.position)

    def _write(self, register: VirtualRegister) -> None:
        positions = self.positions.get(register)
        if positions is None:
            self.positions[register] = [self.position]
            self.def_positions[register] = [self.position]
            self.written_first.add(register)
        else:
            positions.append(self.position)
            self.def_positions[register].append(self.position)

    def visit_body(self, body: List[Statement]) -> None:
        for stmt in body:
            if isinstance(stmt, Instruction):
                self.position += 1
                if stmt.opcode is Opcode.BAR:
                    self.barrier_positions.append(self.position)
                for value in stmt.reads:
                    if isinstance(value, VirtualRegister):
                        self._read(value)
                if stmt.dest is not None:
                    self._write(stmt.dest)
            elif isinstance(stmt, ForLoop):
                self.position += 1
                start_pos = self.position
                # The counter is written at the header and read at the
                # latch on every iteration.
                self._write(stmt.counter)
                for bound in (stmt.start, stmt.stop, stmt.step):
                    if isinstance(bound, VirtualRegister):
                        self._read(bound)
                self.visit_body(stmt.body)
                self.position += 1
                self._read(stmt.counter)
                # Dynamic bounds are re-read by the latch test.
                if isinstance(stmt.stop, VirtualRegister):
                    self._read(stmt.stop)
                self.loops.append((start_pos, self.position))
            elif isinstance(stmt, If):
                self.position += 1
                if isinstance(stmt.cond, VirtualRegister):
                    self._read(stmt.cond)
                self.visit_body(stmt.then_body)
                self.visit_body(stmt.else_body)


@dataclasses.dataclass
class LivenessInfo:
    """Live intervals plus the structure needed for pipelining analysis."""

    intervals: List[LiveInterval]
    loops: List[Tuple[int, int]]
    barrier_positions: List[int]
    #: every register's def positions, ascending
    def_positions: Dict[VirtualRegister, List[int]]


def analyze_liveness(kernel: Kernel, include_predicates: bool = False) -> LivenessInfo:
    """Compute widened live intervals for every virtual register.

    Predicate registers live in the 8800's separate predicate file and
    are excluded from the 32-bit register count unless requested.

    A register's accesses are ascending, so each loop rule needs no
    scan of them: a loop holds all of them iff it spans the first and
    the last, and one bisection tells whether a loop that spans only
    part of that range holds any.
    """
    linearizer = _Linearizer()
    linearizer.visit_body(kernel.body)

    loops = linearizer.loops
    def_positions = linearizer.def_positions
    written_first = linearizer.written_first
    intervals = []
    for register, positions in linearizer.positions.items():
        if register.dtype is DataType.PRED and not include_predicates:
            continue
        first = start = positions[0]
        last = end = positions[-1]
        # Live through a loop holding every access only if carried by
        # it: the first access is a read and the body also writes it.
        carried = register not in written_first and bool(def_positions[register])
        for loop_start, loop_end in loops:
            if loop_end < first or last < loop_start:
                continue
            if loop_start <= first and last <= loop_end:
                if not carried:
                    continue
            elif positions[bisect_left(positions, loop_start)] > loop_end:
                # Accessed before and after the loop, never inside it.
                continue
            if loop_start < start:
                start = loop_start
            if loop_end > end:
                end = loop_end
        intervals.append(LiveInterval(register, start, end))
    return LivenessInfo(
        intervals=intervals,
        loops=loops,
        barrier_positions=linearizer.barrier_positions,
        def_positions=def_positions,
    )


def live_intervals(kernel: Kernel, include_predicates: bool = False) -> List[LiveInterval]:
    """Widened live intervals only (see analyze_liveness)."""
    return analyze_liveness(kernel, include_predicates).intervals


def pipeline_register_pressure(
    kernel: Kernel, liveness: Optional[LivenessInfo] = None,
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
    without a barrier returns 0 before any analysis.
    """
    if liveness is None:
        if not any(
            instr.opcode is Opcode.BAR
            for instr in iter_instructions(kernel.body)
        ):
            return 0
        liveness = analyze_liveness(kernel)
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

    global_load_dests = {
        instr.dest for instr in iter_instructions(kernel.body)
        if instr.opcode is Opcode.LD and instr.is_global_access
        and instr.dest is not None
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
