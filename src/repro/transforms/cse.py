"""Common subexpression elimination (paper Section 3.1, category three).

Redundant computations distributed across a thread's instruction
stream — typically address arithmetic duplicated by thread-level
tiling — are collapsed onto a single definition.  The transformation
is restricted to single-definition registers, which is what the
KernelBuilder produces for everything except explicit accumulators,
keeping the substitution globally sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import Value, VirtualRegister
from repro.transforms.rewrite import (
    DefUse,
    clone_kernel,
    collect_defs,
    rewrite_instruction,
    substitute_value,
)

_CSE_OPS = {
    op for op in Opcode
    if op not in (Opcode.LD, Opcode.ST, Opcode.BAR)
}

#: what makes two instructions compute the same value
ExprKey = Tuple


class _CSE:
    def __init__(self, defs: Dict[VirtualRegister, int]) -> None:
        self.defs = defs
        self.replacements: Dict[VirtualRegister, Value] = {}

    def _eligible(self, instr: Instruction) -> bool:
        defs = self.defs
        if instr.opcode not in _CSE_OPS or defs.get(instr.dest, 0) != 1:
            return False
        for value in instr.srcs:
            if value.__class__ is VirtualRegister and defs.get(value, 0) != 1:
                return False
        return True

    def run_body(self, body: List[Statement], avail: Dict[ExprKey, VirtualRegister]) -> List[Statement]:
        result: List[Statement] = []
        replacements = self.replacements
        for stmt in body:
            if isinstance(stmt, Instruction):
                # Operands are rewritten before the instruction is
                # keyed, so a sweep's output holds no two equal keys in
                # one scope: a second sweep finds nothing to share.
                instr = rewrite_instruction(stmt, replacements)
                key = None
                if instr.dest is not None and self._eligible(instr):
                    key = (instr.opcode, instr.cmp, instr.srcs)
                    existing = avail.get(key)
                    if existing is not None:
                        replacements[instr.dest] = existing
                        continue
                result.append(instr)
                if key is not None:
                    avail[key] = instr.dest
            elif isinstance(stmt, ForLoop):
                result.append(ForLoop(
                    counter=stmt.counter,
                    start=substitute_value(stmt.start, replacements),
                    stop=substitute_value(stmt.stop, replacements),
                    step=substitute_value(stmt.step, replacements),
                    # Nested scope: expressions computed inside a loop
                    # iteration must not satisfy later iterations or
                    # post-loop code (fresh table), but outer
                    # expressions remain available inside.
                    body=self.run_body(stmt.body, dict(avail)),
                    trip_count=stmt.trip_count,
                    label=stmt.label,
                ))
            elif isinstance(stmt, If):
                result.append(If(
                    cond=substitute_value(stmt.cond, replacements),
                    then_body=self.run_body(stmt.then_body, dict(avail)),
                    else_body=self.run_body(stmt.else_body, dict(avail)),
                    taken_fraction=stmt.taken_fraction,
                ))
        return result


def eliminate_common_subexpressions(kernel: Kernel) -> Kernel:
    """One CSE sweep over the kernel."""
    return eliminate_common_subexpressions_changed(kernel)[0]


def eliminate_common_subexpressions_changed(
    kernel: Kernel, summary: Optional[DefUse] = None,
) -> Tuple[Kernel, bool]:
    """Like :func:`eliminate_common_subexpressions`, reporting change.

    A sweep changes the kernel iff it recorded at least one replacement
    (every drop records one, and every recorded replacement drops an
    instruction); the structural comparison confirms that cheaply and
    keeps the flag exact even if the invariant ever loosens.
    ``summary`` is the input's :class:`DefUse`, when the caller has one.
    A changed kernel is a fixpoint of this pass (see ``run_body``).
    """
    defs = summary.defs if summary is not None else collect_defs(kernel.body)
    cse = _CSE(defs)
    body = cse.run_body(kernel.body, {})
    if not cse.replacements and body == kernel.body:
        return kernel, False
    return clone_kernel(kernel, body=body), True
