"""Constant folding, copy propagation and address folding.

These are the cleanups that make unrolling pay off the way the paper
describes: once the counter is an immediate, per-iteration address
arithmetic evaluates away and the remaining add-immediate feeding a
load folds into the memory operand's constant offset — "the group of
memory operations only need the single base address calculation and
use their constant offsets".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction, MemRef, Opcode
from repro.ir.kernel import Kernel
from repro.ir.semantics import eval_op
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.types import DataType
from repro.ir.values import (
    Immediate,
    Param,
    SpecialRegister,
    Value,
    VirtualRegister,
)
from repro.transforms.rewrite import (
    clone_kernel,
    collect_loop_defs,
    collect_uses,
    substitute_value,
)

_PURE_OPS = {op for op in Opcode if op not in (Opcode.LD, Opcode.ST, Opcode.BAR)}

_IMMUTABLE_SOURCES = (Immediate, SpecialRegister)


def _is_immutable(value: Value) -> bool:
    if isinstance(value, _IMMUTABLE_SOURCES):
        return True
    return isinstance(value, Param) and not value.is_pointer


class _Folder:
    def __init__(self, kernel: Kernel) -> None:
        # Def counts, and the registers each loop body defines, from
        # one walk of the input kernel (every loop fold_body enters is
        # one of its loops).
        self.body = kernel.body
        self.defs, self.loop_defs = collect_loop_defs(kernel.body)
        # Read counts over the whole input kernel, built on first need.
        self.uses: Optional[Dict[VirtualRegister, int]] = None
        # Values known to equal a register (propagation environment).
        self.env: Dict[VirtualRegister, Value] = {}
        # Defining instruction of each single-def register seen so far.
        self.def_instr: Dict[VirtualRegister, Instruction] = {}
        # Reverse index: register -> def_instr keys whose instruction
        # reads it.  Entries may outlive the def_instr entry they name
        # (scope exit drops def_instr entries only); invalidation
        # re-checks each candidate, so a stale entry is never wrong.
        self.readers: Dict[VirtualRegister, List[VirtualRegister]] = {}

    def _single_def(self, register: VirtualRegister) -> bool:
        return self.defs.get(register, 0) == 1

    def _fold_scoped(self, body: List[Statement]) -> List[Statement]:
        """Fold a nested body, then drop facts that do not survive it.

        Register-valued propagation entries and address-chain entries
        recorded inside a loop body describe one iteration's values;
        they must not leak to code after the loop (where the counter
        and loop-carried registers hold different values).  The same
        conservatism is applied to conditional bodies.  A dropped copy
        whose destination is read outside the body is re-emitted at
        the body's end, where it still holds.
        """
        env_before = set(self.env)
        defs_before = set(self.def_instr)
        folded = self.fold_body(body)
        dropped = [key for key in self.env if key not in env_before
                   and isinstance(self.env[key], VirtualRegister)]
        if dropped:
            if self.uses is None:
                self.uses = collect_uses(self.body)
            inside = collect_uses(body)
            for key in dropped:
                if self.uses.get(key, 0) > inside.get(key, 0):
                    folded.append(Instruction(
                        Opcode.MOV, dest=key, srcs=(self.env[key],)))
                del self.env[key]
        for key in list(self.def_instr):
            if key not in defs_before:
                del self.def_instr[key]
        return folded

    def fold_body(self, body: List[Statement]) -> List[Statement]:
        result: List[Statement] = []
        for stmt in body:
            if isinstance(stmt, Instruction):
                folded = self._fold_instruction(stmt)
                if folded is not None:
                    result.append(folded)
            elif isinstance(stmt, ForLoop):
                # A chain recorded before the loop must not fold inside
                # it if the loop body rewrites what the chain reads: a
                # use ahead of the rewrite sees the rewritten value from
                # the second iteration on.
                for register in self.loop_defs[id(stmt)]:
                    if not self._single_def(register):
                        self._invalidate_reads_of(register)
                result.append(ForLoop(
                    counter=stmt.counter,
                    start=substitute_value(stmt.start, self.env),
                    stop=substitute_value(stmt.stop, self.env),
                    step=substitute_value(stmt.step, self.env),
                    body=self._fold_scoped(stmt.body),
                    trip_count=stmt.trip_count,
                    label=stmt.label,
                ))
            elif isinstance(stmt, If):
                cond = substitute_value(stmt.cond, self.env)
                if isinstance(cond, Immediate):
                    chosen = stmt.then_body if cond.value else stmt.else_body
                    result.extend(self.fold_body(chosen))
                else:
                    result.append(If(
                        cond=cond,
                        then_body=self._fold_scoped(stmt.then_body),
                        else_body=self._fold_scoped(stmt.else_body),
                        taken_fraction=stmt.taken_fraction,
                    ))
        return result

    def _record_def(self, instr: Instruction) -> None:
        """Remember a single-def register's instruction for address folding."""
        self.def_instr[instr.dest] = instr
        for value in instr.reads:
            if isinstance(value, VirtualRegister):
                self.readers.setdefault(value, []).append(instr.dest)

    def _invalidate_reads_of(self, register: VirtualRegister) -> None:
        """A multi-def register changed: drop address chains reading it.

        Only the keys recorded as readers of ``register`` are visited,
        so a write to an accumulator costs time proportional to its
        readers, not to every chain recorded so far.
        """
        for key in self.readers.pop(register, ()):
            instr = self.def_instr.get(key)
            if instr is not None and register in instr.reads:
                del self.def_instr[key]

    def _fold_instruction(self, instr: Instruction) -> Optional[Instruction]:
        env = self.env
        srcs = tuple(substitute_value(s, env) for s in instr.srcs)
        mem = instr.mem
        if mem is not None:
            mem = self._fold_memref(mem, substitute_value(mem.index, env))
        if mem is not instr.mem or any(
            a is not b for a, b in zip(srcs, instr.srcs)
        ):
            instr = Instruction(
                opcode=instr.opcode, dest=instr.dest, srcs=srcs, mem=mem,
                cmp=instr.cmp, coalesced=instr.coalesced,
            )
        if instr.dest is not None and not self._single_def(instr.dest):
            self._invalidate_reads_of(instr.dest)

        if instr.opcode not in _PURE_OPS or instr.dest is None:
            return instr

        # Full evaluation when every operand is an immediate.
        if srcs and all(isinstance(s, Immediate) for s in srcs):
            value = eval_op(
                instr.opcode, instr.dest.dtype,
                tuple(s.value for s in srcs), cmp=instr.cmp,
            )
            return self._bind(instr, Immediate(value, instr.dest.dtype))

        simplified = self._algebraic(instr)
        if isinstance(simplified, Instruction):
            if simplified.dest is not None and self._single_def(simplified.dest):
                self._record_def(simplified)
            return simplified
        # The instruction reduced to an existing value.
        return self._bind(instr, simplified)

    def _bind(self, instr: Instruction, value: Value) -> Optional[Instruction]:
        """Record dest == value; drop the instruction when that is safe."""
        if self._single_def(instr.dest) and (
            _is_immutable(value) or (
                isinstance(value, VirtualRegister) and self._single_def(value)
            )
        ):
            self.env[instr.dest] = value
            return None
        return Instruction(Opcode.MOV, dest=instr.dest, srcs=(value,))

    def _algebraic(self, instr: Instruction):
        """Identity simplifications; returns an Instruction or a Value."""
        op = instr.opcode
        srcs = instr.srcs

        def is_imm(value: Value, number) -> bool:
            return isinstance(value, Immediate) and value.value == number

        if op is Opcode.MOV:
            return srcs[0]
        if op is Opcode.ADD:
            if is_imm(srcs[0], 0):
                return srcs[1]
            if is_imm(srcs[1], 0):
                return srcs[0]
        if op is Opcode.SUB and is_imm(srcs[1], 0):
            return srcs[0]
        if op is Opcode.MUL:
            if is_imm(srcs[0], 1):
                return srcs[1]
            if is_imm(srcs[1], 1):
                return srcs[0]
            if (is_imm(srcs[0], 0) or is_imm(srcs[1], 0)) and instr.dest.dtype.is_integer:
                return Immediate(0, instr.dest.dtype)
        if op is Opcode.MAD:
            a, b, c = srcs
            if isinstance(a, Immediate) and isinstance(b, Immediate):
                product = eval_op(Opcode.MUL, instr.dest.dtype, (a.value, b.value))
                if product == 0 and instr.dest.dtype.is_integer:
                    return c
                return Instruction(
                    Opcode.ADD, dest=instr.dest,
                    srcs=(Immediate(product, instr.dest.dtype), c),
                    coalesced=instr.coalesced,
                )
            if is_imm(c, 0) and instr.dest.dtype.is_integer:
                return Instruction(Opcode.MUL, dest=instr.dest, srcs=(a, b))
        if op in (Opcode.SHL, Opcode.SHR) and is_imm(srcs[1], 0):
            return srcs[0]
        return instr

    def _fold_memref(self, mem: MemRef, index: Value) -> MemRef:
        """Chase add-immediate chains from ``index`` into the constant
        offset; ``mem`` itself comes back when nothing folds."""
        offset = mem.offset
        while True:
            if isinstance(index, Immediate):
                offset += int(index.value)
                index = Immediate(0, DataType.S32)
                break
            if not isinstance(index, VirtualRegister):
                break
            definition = self.def_instr.get(index)
            if definition is None or definition.opcode is not Opcode.ADD:
                break
            a, b = definition.srcs
            if isinstance(b, Immediate):
                offset += int(b.value)
                index = a
            elif isinstance(a, Immediate):
                offset += int(a.value)
                index = b
            else:
                break
        if index is mem.index and offset == mem.offset:
            return mem
        return MemRef(mem.base, index, offset)


def constant_fold(kernel: Kernel) -> Kernel:
    """Run folding + propagation + address folding once over a kernel."""
    return constant_fold_changed(kernel)[0]


def constant_fold_changed(kernel: Kernel) -> Tuple[Kernel, bool]:
    """Like :func:`constant_fold`, reporting whether anything changed.

    The changed flag is exact — statement dataclasses compare
    structurally, so ``folded == original`` holds iff the sweep was an
    identity — and an unchanged kernel is returned as the *same*
    object, letting the fixpoint driver converge without re-emitting
    PTX (see :func:`repro.transforms.pipeline.standard_cleanup`).
    """
    folder = _Folder(kernel)
    body = folder.fold_body(kernel.body)
    if body == kernel.body:
        return kernel, False
    return clone_kernel(kernel, body=body), True
