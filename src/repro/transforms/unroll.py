"""Loop unrolling (paper Section 3.1, third category; Figure 2(c)).

Unrolling reduces dynamic instruction count by eliminating per-trip
loop overhead and — after constant folding — the per-iteration address
calculations: "PTX shows that the group of memory operations only need
the single base address calculation and use their constant offsets to
avoid additional address calculations."

``COMPLETE`` expands the loop entirely, replacing the counter with
immediates so the folding passes can do exactly that.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.ir.instructions import Instruction
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import Immediate, VirtualRegister
from repro.transforms.rewrite import (
    FreshNames,
    Substitution,
    clone_body,
    clone_kernel,
    collect_defs,
    collect_uses,
    registers_read_before_write,
)

COMPLETE = "complete"
UnrollFactor = Union[int, str]


class UnrollError(ValueError):
    """The requested unrolling cannot be applied to this loop."""


def _check_factor(factor: UnrollFactor) -> None:
    if factor == COMPLETE:
        return
    if not isinstance(factor, int) or factor < 1:
        raise UnrollError(f"unroll factor must be a positive int or {COMPLETE!r}")


def _body_locals(
    loop: ForLoop, kernel_defs: dict, kernel_uses: dict
) -> List[VirtualRegister]:
    """Registers that are private to one iteration and safe to rename."""
    body_defs = collect_defs(loop.body)
    body_uses = collect_uses(loop.body)
    carried = registers_read_before_write(loop.body)
    locals_ = []
    for register, count in body_defs.items():
        if register in carried:
            continue
        if kernel_defs.get(register, 0) != count:
            # Also defined outside this body: shared state.
            continue
        if kernel_uses.get(register, 0) > body_uses.get(register, 0):
            # Read after the loop, which sees the last iteration's value.
            continue
        locals_.append(register)
    return locals_


def _expand_iteration(
    loop: ForLoop,
    counter_value,
    rename: Substitution,
) -> List[Statement]:
    mapping = dict(rename)
    mapping[loop.counter] = counter_value
    return clone_body(loop.body, mapping)


def _unroll_loop(
    loop: ForLoop,
    factor: UnrollFactor,
    kernel_defs: dict,
    kernel_uses: dict,
    names: FreshNames,
) -> List[Statement]:
    trips = loop.static_trip_count()
    if trips is None:
        raise UnrollError(
            f"loop {loop.label or loop.counter.name} has dynamic bounds; "
            "only statically-counted loops can be unrolled"
        )
    start = int(loop.start.value)
    step = int(loop.step.value)
    locals_ = _body_locals(loop, kernel_defs, kernel_uses)

    def fresh_rename() -> Substitution:
        return {reg: names.register(reg) for reg in locals_}

    if factor == COMPLETE or factor >= trips:
        expanded: List[Statement] = []
        for k in range(trips):
            counter_value = Immediate(start + k * step, loop.counter.dtype)
            expanded.extend(_expand_iteration(loop, counter_value, fresh_rename()))
        return expanded

    if factor == 1:
        return [loop]

    main_trips = trips - trips % factor
    statements: List[Statement] = []
    if main_trips:
        new_body: List[Statement] = []
        for k in range(factor):
            if k == 0:
                counter_value = loop.counter
                prefix: List[Statement] = []
            else:
                from repro.ir.instructions import Opcode

                shifted = names.register(loop.counter)
                prefix = [Instruction(
                    Opcode.ADD,
                    dest=shifted,
                    srcs=(loop.counter, Immediate(k * step, loop.counter.dtype)),
                )]
                counter_value = shifted
            new_body.extend(prefix)
            new_body.extend(_expand_iteration(loop, counter_value, fresh_rename()))
        statements.append(ForLoop(
            counter=loop.counter,
            start=loop.start,
            stop=Immediate(start + main_trips * step, loop.counter.dtype),
            step=Immediate(factor * step, loop.counter.dtype),
            body=new_body,
            label=loop.label,
        ))
    for k in range(main_trips, trips):
        counter_value = Immediate(start + k * step, loop.counter.dtype)
        statements.extend(_expand_iteration(loop, counter_value, fresh_rename()))
    return statements


def _rewrite_body(
    body: List[Statement],
    factor: UnrollFactor,
    label: Optional[str],
    kernel_defs: dict,
    kernel_uses: dict,
    names: FreshNames,
) -> List[Statement]:
    result: List[Statement] = []
    for stmt in body:
        if isinstance(stmt, ForLoop):
            # Innermost-ness is judged on the original tree: expanding
            # a child must not make its parent a target.
            was_innermost = _is_innermost(stmt)
            inner = _rewrite_body(stmt.body, factor, label, kernel_defs,
                                  kernel_uses, names)
            loop = ForLoop(
                counter=stmt.counter, start=stmt.start, stop=stmt.stop,
                step=stmt.step, body=inner, trip_count=stmt.trip_count,
                label=stmt.label,
            )
            matches = (label is None and was_innermost) or (
                label is not None and loop.label == label
            )
            if matches:
                result.extend(_unroll_loop(loop, factor, kernel_defs,
                                          kernel_uses, names))
            else:
                result.append(loop)
        elif isinstance(stmt, If):
            result.append(If(
                cond=stmt.cond,
                then_body=_rewrite_body(stmt.then_body, factor, label,
                                        kernel_defs, kernel_uses, names),
                else_body=_rewrite_body(stmt.else_body, factor, label,
                                        kernel_defs, kernel_uses, names),
                taken_fraction=stmt.taken_fraction,
            ))
        else:
            result.append(stmt)
    return result


def _is_innermost(loop: ForLoop) -> bool:
    return not any(isinstance(s, ForLoop) for s in loop.body)


def unroll(
    kernel: Kernel,
    factor: UnrollFactor,
    label: Optional[str] = None,
) -> Kernel:
    """Unroll loops by ``factor`` (or ``COMPLETE``).

    With ``label`` given, only loops carrying that label are unrolled;
    otherwise every innermost statically-counted loop is.  A remainder
    loop is fully expanded when the factor does not divide the trip
    count.  A factor of 1 returns ``kernel`` itself.
    """
    _check_factor(factor)
    if factor == 1:
        # Passes never mutate their input, so the kernel itself stands
        # for its unrolled-by-one copy.
        return kernel
    kernel_defs = collect_defs(kernel.body)
    kernel_uses = collect_uses(kernel.body)
    names = FreshNames("u")
    body = _rewrite_body(kernel.body, factor, label, kernel_defs,
                         kernel_uses, names)
    return clone_kernel(kernel, body=body)
