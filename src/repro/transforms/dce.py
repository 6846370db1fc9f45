"""Dead code elimination.

Removes pure instructions whose results are never read, loops whose
bodies emptied out, and conditionals with no surviving arms.  Loads
count as pure: our memory model has no faulting semantics, so an
unread load is dead weight (this is exactly what makes dropped
redundant loads an instruction-count optimization in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import VirtualRegister
from repro.transforms.rewrite import DefUse, clone_kernel, collect_uses

_SIDE_EFFECTS = (Opcode.ST, Opcode.BAR)


def _sweep(
    body: List[Statement], uses: Dict[VirtualRegister, int], dropped: List[int],
) -> List[Statement]:
    """One sweep; counts the statements it drops in ``dropped[0]``."""
    result: List[Statement] = []
    for stmt in body:
        if isinstance(stmt, Instruction):
            if stmt.opcode in _SIDE_EFFECTS or (
                stmt.dest is not None and uses.get(stmt.dest, 0) > 0
            ):
                result.append(stmt)
            else:
                dropped[0] += 1
        elif isinstance(stmt, ForLoop):
            inner = _sweep(stmt.body, uses, dropped)
            if inner or uses.get(stmt.counter, 0) > 0:
                result.append(ForLoop(
                    counter=stmt.counter, start=stmt.start, stop=stmt.stop,
                    step=stmt.step, body=inner, trip_count=stmt.trip_count,
                    label=stmt.label,
                ))
            else:
                dropped[0] += 1
        elif isinstance(stmt, If):
            then_body = _sweep(stmt.then_body, uses, dropped)
            else_body = _sweep(stmt.else_body, uses, dropped)
            if then_body or else_body:
                result.append(If(
                    cond=stmt.cond, then_body=then_body, else_body=else_body,
                    taken_fraction=stmt.taken_fraction,
                ))
            else:
                dropped[0] += 1
    return result


def eliminate_dead_code(kernel: Kernel) -> Kernel:
    """Iterate use-count sweeps to a fixpoint."""
    return eliminate_dead_code_changed(kernel)[0]


def eliminate_dead_code_changed(
    kernel: Kernel, summary: Optional[DefUse] = None,
) -> Tuple[Kernel, bool]:
    """Like :func:`eliminate_dead_code`, reporting whether anything died.

    A sweep only ever removes statements, so whether it dropped any is
    an exact change detector — it drives the internal fixpoint, and
    the flag is simply whether the first sweep dropped anything.
    ``summary`` is the input's :class:`DefUse`, when the caller has one
    (its read counts feed the first sweep).

    The output is a fixpoint of this pass, and of every other cleanup
    pass the input was one: a sweep deletes only registers nothing
    reads (all of their defs), plus loops and ``If``s left empty, and
    no decision of constant folding, CSE or LICM about a surviving
    instruction depends on those.
    """
    uses = summary.uses if summary is not None else collect_uses(kernel.body)
    body = kernel.body
    changed = False
    while True:
        dropped = [0]
        swept = _sweep(body, uses, dropped)
        if not dropped[0]:
            break
        changed = True
        body = swept
        uses = collect_uses(body)
    if not changed:
        return kernel, False
    return clone_kernel(kernel, body=body), True
