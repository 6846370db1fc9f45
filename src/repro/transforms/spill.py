"""Proactive register spilling (paper Section 3.1, resource balancing).

"One example is proactive, explicit register spilling by the
programmer.  By reducing register usage, often a critical resource,
more thread blocks may be assigned to each SM ... despite the added
latency from memory access and additional instructions."

Spilled registers move to per-thread local memory (off-chip, Table 1).
Each definition gains a store, each use gains a reload into a fresh
short-lived temporary, trading instructions and memory latency for
register pressure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cubin.liveness import live_intervals
from repro.ir.instructions import Instruction, MemRef, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.types import DataType
from repro.ir.values import Immediate, LocalArray, VirtualRegister
from repro.ptx.view import KernelView
from repro.transforms.rewrite import FreshNames, clone_kernel


class SpillError(ValueError):
    """No spillable register exists."""


def _loop_bound_registers(body: List[Statement]) -> Set[VirtualRegister]:
    found: Set[VirtualRegister] = set()

    def visit(statements: List[Statement]) -> None:
        for stmt in statements:
            if isinstance(stmt, ForLoop):
                found.add(stmt.counter)
                for bound in (stmt.start, stmt.stop, stmt.step):
                    if isinstance(bound, VirtualRegister):
                        found.add(bound)
                visit(stmt.body)
            elif isinstance(stmt, If):
                if isinstance(stmt.cond, VirtualRegister):
                    found.add(stmt.cond)
                visit(stmt.then_body)
                visit(stmt.else_body)

    visit(body)
    return found


def choose_spill_candidates(
    kernel: Kernel, count: int, view: Optional[KernelView] = None,
) -> List[VirtualRegister]:
    """Longest-lived registers that can legally move to local memory.

    ``view`` is the kernel's :class:`~repro.ptx.view.KernelView`, when
    the caller has one."""
    excluded = _loop_bound_registers(kernel.body)
    intervals = sorted(
        (iv for iv in live_intervals(kernel, view=view)
         if iv.register not in excluded
         and iv.register.dtype is not DataType.PRED),
        key=lambda iv: iv.length,
        reverse=True,
    )
    return [iv.register for iv in intervals[:count]]


def spill_registers(
    kernel: Kernel,
    count: int = 1,
    registers: Optional[List[VirtualRegister]] = None,
    view: Optional[KernelView] = None,
) -> Kernel:
    """Spill ``count`` registers (or an explicit list) to local memory;
    ``view`` is ``kernel``'s view for choosing them, when the caller has
    one."""
    victims = (registers if registers is not None
               else choose_spill_candidates(kernel, count, view=view))
    if not victims:
        raise SpillError(f"kernel {kernel.name} has no spillable register")
    slots: Dict[VirtualRegister, int] = {reg: i for i, reg in enumerate(victims)}
    spill_space = LocalArray(
        name="__spill", dtype=victims[0].dtype, length=len(victims)
    )
    if any(reg.dtype is not victims[0].dtype for reg in victims):
        # One array per dtype keeps the model simple; mixed spills are
        # rare enough to just take separate arrays.
        raise SpillError("mixed-type spill sets are not supported; spill per type")
    names = FreshNames("sp")
    victim_set = set(victims)

    def slot_ref(register: VirtualRegister) -> MemRef:
        return MemRef(spill_space, Immediate(slots[register], DataType.S32))

    def rewrite(body: List[Statement]) -> List[Statement]:
        result: List[Statement] = []
        for stmt in body:
            if isinstance(stmt, Instruction):
                reload_map: Dict[VirtualRegister, VirtualRegister] = {}
                for value in stmt.reads:
                    if isinstance(value, VirtualRegister) and value in victim_set:
                        if value not in reload_map:
                            temp = names.register(value)
                            result.append(Instruction(
                                Opcode.LD, dest=temp, mem=slot_ref(value)
                            ))
                            reload_map[value] = temp
                new_srcs = tuple(
                    reload_map.get(v, v) if isinstance(v, VirtualRegister) else v
                    for v in stmt.srcs
                )
                new_mem = stmt.mem
                if new_mem is not None and isinstance(new_mem.index, VirtualRegister):
                    new_mem = MemRef(
                        new_mem.base,
                        reload_map.get(new_mem.index, new_mem.index),
                        new_mem.offset,
                    )
                result.append(Instruction(
                    opcode=stmt.opcode, dest=stmt.dest, srcs=new_srcs,
                    mem=new_mem, cmp=stmt.cmp, coalesced=stmt.coalesced,
                ))
                if stmt.dest is not None and stmt.dest in victim_set:
                    result.append(Instruction(
                        Opcode.ST, srcs=(stmt.dest,), mem=slot_ref(stmt.dest)
                    ))
            elif isinstance(stmt, ForLoop):
                result.append(ForLoop(
                    counter=stmt.counter, start=stmt.start, stop=stmt.stop,
                    step=stmt.step, body=rewrite(stmt.body),
                    trip_count=stmt.trip_count, label=stmt.label,
                ))
            elif isinstance(stmt, If):
                result.append(If(
                    cond=stmt.cond,
                    then_body=rewrite(stmt.then_body),
                    else_body=rewrite(stmt.else_body),
                    taken_fraction=stmt.taken_fraction,
                ))
        return result

    spilled = clone_kernel(kernel, body=rewrite(kernel.body))
    spilled.local_arrays.append(spill_space)
    return spilled
