"""Shared rewriting machinery for IR-to-IR passes.

Provides deep cloning of statement trees, value substitution, and
def/use bookkeeping.  All passes return fresh kernels; input IR is
never mutated, so configurations can share a baseline kernel safely.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Set, Tuple

from repro.ir.instructions import Instruction, MemRef
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import Value, VirtualRegister

Substitution = Dict[VirtualRegister, Value]


def substitute_value(value: Value, mapping: Substitution) -> Value:
    if isinstance(value, VirtualRegister):
        return mapping.get(value, value)
    return value


def rewrite_instruction(instr: Instruction, mapping: Substitution) -> Instruction:
    """Apply a register substitution to one instruction.

    Destination registers are substituted too (unroll renames them);
    a destination mapped to a non-register is a programming error.
    Instructions and memory operands are frozen, so one the mapping
    does not touch is returned as is: no copy, no re-validation, and a
    later equality check against it is an identity check.
    """
    if not mapping:
        return instr
    dest = instr.dest
    if dest is not None and dest in mapping:
        replacement = mapping[dest]
        if not isinstance(replacement, VirtualRegister):
            raise TypeError(f"cannot write to {replacement}")
        dest = replacement
    mem = instr.mem
    if mem is not None:
        index = substitute_value(mem.index, mapping)
        if index is not mem.index:
            mem = MemRef(mem.base, index, mem.offset)
    srcs = tuple(substitute_value(s, mapping) for s in instr.srcs)
    if dest is instr.dest and mem is instr.mem and all(
        new is old for new, old in zip(srcs, instr.srcs)
    ):
        return instr
    return Instruction(
        opcode=instr.opcode,
        dest=dest,
        srcs=srcs,
        mem=mem,
        cmp=instr.cmp,
        coalesced=instr.coalesced,
    )


def clone_body(body: List[Statement], mapping: Substitution = None) -> List[Statement]:
    """Copy a statement tree with an optional register substitution.

    Loops and conditionals are mutable, so every container is fresh;
    instructions the mapping does not touch are shared (they are frozen).
    """
    mapping = mapping or {}
    result: List[Statement] = []
    for stmt in body:
        if isinstance(stmt, Instruction):
            result.append(rewrite_instruction(stmt, mapping))
        elif isinstance(stmt, ForLoop):
            counter = substitute_value(stmt.counter, mapping)
            if not isinstance(counter, VirtualRegister):
                raise TypeError("loop counter must remain a register")
            result.append(ForLoop(
                counter=counter,
                start=substitute_value(stmt.start, mapping),
                stop=substitute_value(stmt.stop, mapping),
                step=substitute_value(stmt.step, mapping),
                body=clone_body(stmt.body, mapping),
                trip_count=stmt.trip_count,
                label=stmt.label,
            ))
        elif isinstance(stmt, If):
            result.append(If(
                cond=substitute_value(stmt.cond, mapping),
                then_body=clone_body(stmt.then_body, mapping),
                else_body=clone_body(stmt.else_body, mapping),
                taken_fraction=stmt.taken_fraction,
            ))
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return result


def clone_kernel(kernel: Kernel, body: List[Statement] = None) -> Kernel:
    """Copy a kernel, optionally replacing its body."""
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        block_dim=kernel.block_dim,
        grid_dim=kernel.grid_dim,
        shared_arrays=list(kernel.shared_arrays),
        local_arrays=list(kernel.local_arrays),
        body=body if body is not None else clone_body(kernel.body),
    )


def collect_defs(body: List[Statement]) -> Dict[VirtualRegister, int]:
    """Count definitions of each register in a statement tree."""
    counts: Dict[VirtualRegister, int] = {}

    def visit(statements: List[Statement]) -> None:
        for stmt in statements:
            if isinstance(stmt, Instruction):
                if stmt.dest is not None:
                    counts[stmt.dest] = counts.get(stmt.dest, 0) + 1
            elif isinstance(stmt, ForLoop):
                counts[stmt.counter] = counts.get(stmt.counter, 0) + 1
                visit(stmt.body)
            elif isinstance(stmt, If):
                visit(stmt.then_body)
                visit(stmt.else_body)

    visit(body)
    return counts


def collect_loop_defs(
    body: List[Statement],
) -> Tuple[Dict[VirtualRegister, int], Dict[int, Set[VirtualRegister]]]:
    """Def counts of a statement tree and, in the same walk, the
    registers each loop's body defines.

    The second map is keyed by ``id(loop)``, so it is valid only while
    ``body`` is alive and unmodified.  A nested loop's set is built
    once and merged into each enclosing loop's set, instead of walking
    the nested body again per enclosing level.
    """
    counts: Dict[VirtualRegister, int] = {}
    loop_defs: Dict[int, Set[VirtualRegister]] = {}

    def visit(statements: List[Statement], defined: Set[VirtualRegister]) -> None:
        for stmt in statements:
            if isinstance(stmt, Instruction):
                if stmt.dest is not None:
                    counts[stmt.dest] = counts.get(stmt.dest, 0) + 1
                    defined.add(stmt.dest)
            elif isinstance(stmt, ForLoop):
                counts[stmt.counter] = counts.get(stmt.counter, 0) + 1
                defined.add(stmt.counter)
                inner: Set[VirtualRegister] = set()
                visit(stmt.body, inner)
                loop_defs[id(stmt)] = inner
                defined |= inner
            elif isinstance(stmt, If):
                visit(stmt.then_body, defined)
                visit(stmt.else_body, defined)

    visit(body, set())
    return counts, loop_defs


def collect_uses(body: List[Statement]) -> Dict[VirtualRegister, int]:
    """Count reads of each register in a statement tree."""
    counts: Dict[VirtualRegister, int] = {}
    get = counts.get

    def visit(statements: List[Statement]) -> None:
        for stmt in statements:
            kind = stmt.__class__
            if kind is Instruction:
                values = stmt.srcs
                if stmt.mem is not None:
                    values = values + (stmt.mem.index,)
            elif kind is ForLoop:
                values = (stmt.start, stmt.stop, stmt.step)
            elif kind is If:
                values = (stmt.cond,)
            else:
                continue
            for value in values:
                if value.__class__ is VirtualRegister:
                    counts[value] = get(value, 0) + 1
            if kind is ForLoop:
                visit(stmt.body)
            elif kind is If:
                visit(stmt.then_body)
                visit(stmt.else_body)

    visit(body)
    return counts


class DefUse:
    """Def/use facts of one kernel body, each built on its first read.

    ``defs`` (def counts) and ``loop_defs`` (the registers each loop's
    body defines, keyed by ``id(loop)``) come from one
    :func:`collect_loop_defs` walk; ``uses`` (read counts) from one
    :func:`collect_uses` walk.  ``standard_cleanup`` keeps one summary
    per kernel object it hands between passes, so every pass applied
    to that object reads the same walks instead of making its own.
    The facts hold only while ``body`` is alive and unmodified, which
    is always the case for a kernel the passes produced: they never
    mutate their input.
    """

    __slots__ = ("body", "_defs", "_loop_defs", "_uses")

    def __init__(self, body: List[Statement]) -> None:
        self.body = body
        self._defs = self._loop_defs = self._uses = None

    @property
    def defs(self) -> Dict[VirtualRegister, int]:
        if self._defs is None:
            self._defs, self._loop_defs = collect_loop_defs(self.body)
        return self._defs

    @property
    def loop_defs(self) -> Dict[int, Set[VirtualRegister]]:
        if self._loop_defs is None:
            self._defs, self._loop_defs = collect_loop_defs(self.body)
        return self._loop_defs

    @property
    def uses(self) -> Dict[VirtualRegister, int]:
        if self._uses is None:
            self._uses = collect_uses(self.body)
        return self._uses


def registers_read_before_write(body: List[Statement]) -> Set[VirtualRegister]:
    """Registers whose first access in a body is a read.

    Used by unrolling to recognize loop-carried state (accumulators)
    that must keep its name across iteration copies.
    """
    seen_write: Set[VirtualRegister] = set()
    result: Set[VirtualRegister] = set()

    def visit(statements: List[Statement]) -> None:
        for stmt in statements:
            if isinstance(stmt, Instruction):
                for value in stmt.reads:
                    if isinstance(value, VirtualRegister) and value not in seen_write:
                        result.add(value)
                if stmt.dest is not None:
                    seen_write.add(stmt.dest)
            elif isinstance(stmt, ForLoop):
                for bound in (stmt.start, stmt.stop, stmt.step):
                    if isinstance(bound, VirtualRegister) and bound not in seen_write:
                        result.add(bound)
                seen_write.add(stmt.counter)
                visit(stmt.body)
            elif isinstance(stmt, If):
                if isinstance(stmt.cond, VirtualRegister) and stmt.cond not in seen_write:
                    result.add(stmt.cond)
                # Conservatively treat both sides as executed.
                visit(stmt.then_body)
                visit(stmt.else_body)

    visit(body)
    return result


class FreshNames:
    """Generates fresh register names that cannot collide.

    Pass-created registers carry a pass-specific prefix plus a global
    counter, so repeated pass applications stay collision-free.
    """

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._counter = 0

    def register(self, like: VirtualRegister) -> VirtualRegister:
        self._counter += 1
        return VirtualRegister(
            f"{like.name}.{self._prefix}{self._counter}", like.dtype
        )


@dataclasses.dataclass(frozen=True)
class Pass:
    """A named kernel-to-kernel transformation."""

    name: str
    run: Callable[[Kernel], Kernel]


def apply_passes(kernel: Kernel, passes: List[Pass]) -> Kernel:
    """Run a pass list left to right."""
    for pass_ in passes:
        kernel = pass_.run(kernel)
    return kernel
