"""Test-only oracles for the -cubin analogue.

``analyze_liveness_reference`` and ``pipeline_register_pressure_reference``
are the liveness analysis as it was before ``cubin_info`` shared one
analysis per kernel: the loop widening rebuilds every register's
inside-the-loop access list once per loop, and the pipelining estimate
runs a second full analysis even for kernels without a barrier.
``cubin_registers_reference`` is the register count ``cubin_info``
derived from them (two analyses per kernel).  tests/cubin/
test_shared_liveness.py checks the production analysis against these.

``linear_scan_reference`` is linear scan as it was before its heaps:
it rescans every active interval and re-sorts the free registers for
each interval; tests/cubin/test_regalloc.py checks that the heap
version assigns the same registers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.cubin.liveness import LiveInterval
from repro.cubin.regalloc import linear_scan
from repro.cubin.resources import RESERVED_REGISTERS
from repro.ir.instructions import Instruction
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.types import DataType
from repro.ir.values import VirtualRegister


@dataclasses.dataclass
class _Access:
    position: int
    is_def: bool


class _Linearizer:
    def __init__(self) -> None:
        self.position = 0
        self.accesses: Dict[VirtualRegister, List[_Access]] = {}
        self.loops: List[Tuple[int, int]] = []
        self.barrier_positions: List[int] = []

    def _touch(self, register: VirtualRegister, is_def: bool) -> None:
        self.accesses.setdefault(register, []).append(
            _Access(self.position, is_def)
        )

    def visit_body(self, body: List[Statement]) -> None:
        from repro.ir.instructions import Opcode

        for stmt in body:
            if isinstance(stmt, Instruction):
                self.position += 1
                if stmt.opcode is Opcode.BAR:
                    self.barrier_positions.append(self.position)
                for value in stmt.reads:
                    if isinstance(value, VirtualRegister):
                        self._touch(value, is_def=False)
                if stmt.dest is not None:
                    self._touch(stmt.dest, is_def=True)
            elif isinstance(stmt, ForLoop):
                self.position += 1
                start_pos = self.position
                # The counter is written at the header and read at the
                # latch on every iteration.
                self._touch(stmt.counter, is_def=True)
                for bound in (stmt.start, stmt.stop, stmt.step):
                    if isinstance(bound, VirtualRegister):
                        self._touch(bound, is_def=False)
                self.visit_body(stmt.body)
                self.position += 1
                self._touch(stmt.counter, is_def=False)
                # Dynamic bounds are re-read by the latch test.
                if isinstance(stmt.stop, VirtualRegister):
                    self._touch(stmt.stop, is_def=False)
                self.loops.append((start_pos, self.position))
            elif isinstance(stmt, If):
                self.position += 1
                if isinstance(stmt.cond, VirtualRegister):
                    self._touch(stmt.cond, is_def=False)
                self.visit_body(stmt.then_body)
                self.visit_body(stmt.else_body)


@dataclasses.dataclass
class _ReferenceInfo:
    intervals: List[LiveInterval]
    loops: List[Tuple[int, int]]
    barrier_positions: List[int]
    defs_inside_loops: Dict[VirtualRegister, List[int]]


def analyze_liveness_reference(kernel: Kernel, include_predicates: bool = False) -> _ReferenceInfo:
    """Compute widened live intervals for every virtual register.

    Predicate registers live in the 8800's separate predicate file and
    are excluded from the 32-bit register count unless requested.
    """
    linearizer = _Linearizer()
    linearizer.visit_body(kernel.body)

    intervals = []
    defs_inside: Dict[VirtualRegister, List[int]] = {}
    for register, accesses in linearizer.accesses.items():
        if register.dtype is DataType.PRED and not include_predicates:
            continue
        start = min(a.position for a in accesses)
        end = max(a.position for a in accesses)
        for loop_start, loop_end in linearizer.loops:
            inside = [a for a in accesses if loop_start <= a.position <= loop_end]
            if not inside:
                continue
            outside = len(inside) != len(accesses)
            carried = (not inside[0].is_def) and any(a.is_def for a in inside)
            if outside or carried:
                start = min(start, loop_start)
                end = max(end, loop_end)
        intervals.append(LiveInterval(register, start, end))
        defs_inside[register] = [a.position for a in accesses if a.is_def]
    return _ReferenceInfo(
        intervals=intervals,
        loops=linearizer.loops,
        barrier_positions=linearizer.barrier_positions,
        defs_inside_loops=defs_inside,
    )



def pipeline_register_pressure_reference(kernel: Kernel, global_load_dests=None) -> int:
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

    ``global_load_dests`` may be passed to avoid recomputing the set of
    registers written by global loads.
    """
    from repro.ir.instructions import Opcode
    from repro.ir.statements import instructions as iter_instructions

    info = analyze_liveness_reference(kernel)
    straight_line_barrier_loops = []
    for start, end in info.loops:
        if not any(start <= b <= end for b in info.barrier_positions):
            continue
        has_nested = any(
            other != (start, end) and start <= other[0] and other[1] <= end
            for other in info.loops
        )
        if not has_nested:
            straight_line_barrier_loops.append((start, end))
    if not straight_line_barrier_loops:
        return 0

    if global_load_dests is None:
        global_load_dests = {
            instr.dest for instr in iter_instructions(kernel.body)
            if instr.opcode is Opcode.LD and instr.is_global_access
            and instr.dest is not None
        }

    def spanning_written(interval: LiveInterval, extent) -> bool:
        loop_start, loop_end = extent
        defs = info.defs_inside_loops.get(interval.register, [])
        written_inside = any(loop_start <= d <= loop_end for d in defs)
        return written_inside and (
            interval.start <= loop_start and interval.end >= loop_end
        )

    pressure = 0
    for extent in straight_line_barrier_loops:
        spanning = [iv for iv in info.intervals if spanning_written(iv, extent)]
        in_flight_loads = [
            iv for iv in spanning if iv.register in global_load_dests
        ]
        if not in_flight_loads:
            # Nothing to pipeline: the loop's loads complete within
            # their own iteration, so the scheduler leaves it alone.
            continue
        pressure += len(spanning) + len(in_flight_loads)
    return pressure


def linear_scan_reference(
    intervals: List[LiveInterval],
) -> Tuple[Dict[VirtualRegister, int], int]:
    """``(assignment, registers used)`` by the quadratic linear scan."""
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
    return assignment, next_fresh


def cubin_registers_reference(kernel: Kernel) -> int:
    """``cubin_info(kernel).registers_per_thread`` with no reschedule
    seed, computed from two reference analyses."""
    allocation = linear_scan(analyze_liveness_reference(kernel).intervals)
    return (
        allocation.registers_used
        + pipeline_register_pressure_reference(kernel)
        + RESERVED_REGISTERS
    )
