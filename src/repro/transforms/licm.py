"""Loop-invariant code motion (paper Section 3.1, category three).

Pure instructions whose operands do not change across a loop's
iterations are hoisted in front of the loop.  Speculative hoisting out
of conditionals inside the loop is allowed because all hoistable
operations are side-effect free in our model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import VirtualRegister
from repro.transforms.rewrite import DefUse, clone_kernel

_HOISTABLE = {
    op for op in Opcode if op not in (Opcode.LD, Opcode.ST, Opcode.BAR)
}


def _hoist_from(
    body: List[Statement],
    varying: Set[VirtualRegister],
    hoisted: List[Instruction],
    kernel_defs: dict,
) -> List[Statement]:
    """Remove invariant instructions from ``body``, appending to hoisted."""
    remaining: List[Statement] = []
    for stmt in body:
        if isinstance(stmt, Instruction):
            movable = (
                stmt.opcode in _HOISTABLE
                and stmt.dest is not None
                and kernel_defs.get(stmt.dest, 0) == 1
                and all(
                    not isinstance(v, VirtualRegister) or v not in varying
                    for v in stmt.reads
                )
            )
            if movable:
                hoisted.append(stmt)
                varying.discard(stmt.dest)
            else:
                remaining.append(stmt)
        elif isinstance(stmt, If):
            then_body = _hoist_from(stmt.then_body, varying, hoisted, kernel_defs)
            else_body = _hoist_from(stmt.else_body, varying, hoisted, kernel_defs)
            remaining.append(If(
                cond=stmt.cond, then_body=then_body, else_body=else_body,
                taken_fraction=stmt.taken_fraction,
            ))
        else:
            remaining.append(stmt)
    return remaining


def _process_body(
    body: List[Statement],
    kernel_defs: dict,
    loop_defs: Dict[int, Set[VirtualRegister]],
) -> List[Statement]:
    result: List[Statement] = []
    for stmt in body:
        if isinstance(stmt, ForLoop):
            inner = _process_body(stmt.body, kernel_defs, loop_defs)
            loop = ForLoop(
                counter=stmt.counter, start=stmt.start, stop=stmt.stop,
                step=stmt.step, body=inner, trip_count=stmt.trip_count,
                label=stmt.label,
            )
            # Hoisting out of nested loops keeps instructions inside
            # this body, so it still defines what the input loop's body
            # did.  Each instruction hoisted below is its register's
            # only def, and _hoist_from discards that register from
            # ``varying``: the set stays equal to the body's defs
            # (plus the counter) across the fixpoint.
            varying = set(loop_defs[id(stmt)])
            varying.add(loop.counter)
            # Fixpoint: hoisting one instruction can make another
            # invariant (chains of address arithmetic).
            while True:
                hoisted: List[Instruction] = []
                new_body = _hoist_from(loop.body, varying, hoisted, kernel_defs)
                if not hoisted:
                    break
                result.extend(hoisted)
                loop = ForLoop(
                    counter=loop.counter, start=loop.start, stop=loop.stop,
                    step=loop.step, body=new_body, trip_count=loop.trip_count,
                    label=loop.label,
                )
            result.append(loop)
        elif isinstance(stmt, If):
            result.append(If(
                cond=stmt.cond,
                then_body=_process_body(stmt.then_body, kernel_defs, loop_defs),
                else_body=_process_body(stmt.else_body, kernel_defs, loop_defs),
                taken_fraction=stmt.taken_fraction,
            ))
        else:
            result.append(stmt)
    return result


def hoist_loop_invariants(kernel: Kernel) -> Kernel:
    """Hoist invariant pure instructions out of every loop."""
    return hoist_loop_invariants_changed(kernel)[0]


def hoist_loop_invariants_changed(
    kernel: Kernel, summary: Optional[DefUse] = None,
) -> Tuple[Kernel, bool]:
    """Like :func:`hoist_loop_invariants`, reporting whether any
    instruction moved (structural comparison — exact, and an unchanged
    kernel is returned as the same object).  ``summary`` is the input's
    :class:`DefUse`, when the caller has one.

    A changed kernel is a fixpoint of this pass: each loop is hoisted
    to its own fixpoint, inner loops first, so whatever an inner loop
    gives up has already been offered to every loop around it.
    """
    if summary is None:
        summary = DefUse(kernel.body)
    body = _process_body(kernel.body, summary.defs, summary.loop_defs)
    if body == kernel.body:
        return kernel, False
    return clone_kernel(kernel, body=body), True
