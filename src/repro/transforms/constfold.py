"""Constant folding, copy propagation and address folding.

These are the cleanups that make unrolling pay off the way the paper
describes: once the counter is an immediate, per-iteration address
arithmetic evaluates away and the remaining add-immediate feeding a
load folds into the memory operand's constant offset — "the group of
memory operations only need the single base address calculation and
use their constant offsets".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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
    DefUse,
    clone_kernel,
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
    def __init__(self, summary: DefUse) -> None:
        # Def counts, and the registers each loop body defines, of the
        # input kernel (every loop fold_body enters is one of its
        # loops); its read counts are built on first need.
        self.summary = summary
        self.defs = summary.defs
        self.loop_defs = summary.loop_defs
        # Values known to equal a register (propagation environment).
        self.env: Dict[VirtualRegister, Value] = {}
        # Defining instruction of each single-def register seen so far.
        self.def_instr: Dict[VirtualRegister, Instruction] = {}
        # Reverse index: register -> def_instr keys whose instruction
        # reads it.  Entries may outlive the def_instr entry they name
        # (scope exit drops def_instr entries only); invalidation
        # re-checks each candidate, so a stale entry is never wrong.
        self.readers: Dict[VirtualRegister, List[VirtualRegister]] = {}
        # Copies re-emitted at a scope's end (see _fold_scoped).
        self.reemitted: Set[VirtualRegister] = set()
        # Set when this sweep may leave work for a second one: it
        # pruned an If arm (dropping defs and reads the sweep counted)
        # or simplified an instruction reading a re-emitted copy (whose
        # re-emission counted that read).  See constant_fold_changed.
        self.unsettled = False

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
            uses = self.summary.uses
            inside = collect_uses(body)
            for key in dropped:
                if uses.get(key, 0) > inside.get(key, 0):
                    folded.append(Instruction(
                        Opcode.MOV, dest=key, srcs=(self.env[key],)))
                    self.reemitted.add(key)
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
                    if self.defs.get(register, 0) != 1:
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
                    self.unsettled = True
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
        readers = self.readers
        for value in instr.srcs:
            if value.__class__ is VirtualRegister:
                readers.setdefault(value, []).append(instr.dest)

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
        srcs = instr.srcs
        mem = instr.mem
        if env:
            srcs = tuple([
                env.get(s, s) if s.__class__ is VirtualRegister else s
                for s in srcs
            ])
        if mem is not None:
            index = mem.index
            if env and index.__class__ is VirtualRegister:
                index = env.get(index, index)
            mem = self._fold_memref(mem, index)
        if mem is not instr.mem or (srcs is not instr.srcs and srcs != instr.srcs):
            instr = Instruction(
                opcode=instr.opcode, dest=instr.dest, srcs=srcs, mem=mem,
                cmp=instr.cmp, coalesced=instr.coalesced,
            )
        dest = instr.dest
        if dest is None:
            return instr
        single_def = self.defs.get(dest, 0) == 1
        if not single_def:
            self._invalidate_reads_of(dest)
        if instr.opcode not in _PURE_OPS:
            return instr

        # Full evaluation when every operand is an immediate.
        for value in srcs:
            if value.__class__ is not Immediate:
                break
        else:
            if srcs:
                value = eval_op(
                    instr.opcode, dest.dtype,
                    tuple([s.value for s in srcs]), cmp=instr.cmp,
                )
                return self._bind(instr, Immediate(value, dest.dtype))

        simplified = _algebraic(instr)
        if simplified is instr:
            if single_def:
                self._record_def(instr)
            return instr
        if self.reemitted and not self.reemitted.isdisjoint(srcs):
            self.unsettled = True
        if isinstance(simplified, Instruction):
            if single_def:
                self._record_def(simplified)
            return simplified
        # The instruction reduced to an existing value.
        return self._bind(instr, simplified)

    def _bind(self, instr: Instruction, value: Value) -> Optional[Instruction]:
        """Record dest == value; drop the instruction when that is safe."""
        defs = self.defs
        if defs.get(instr.dest, 0) == 1 and (
            _is_immutable(value) or (
                value.__class__ is VirtualRegister and defs.get(value, 0) == 1
            )
        ):
            self.env[instr.dest] = value
            return None
        return Instruction(Opcode.MOV, dest=instr.dest, srcs=(value,))

    def _fold_memref(self, mem: MemRef, index: Value) -> MemRef:
        """Chase add-immediate chains from ``index`` into the constant
        offset; ``mem`` itself comes back when nothing folds."""
        offset = mem.offset
        def_instr = self.def_instr
        while True:
            if index.__class__ is Immediate:
                offset += int(index.value)
                index = Immediate(0, DataType.S32)
                break
            if index.__class__ is not VirtualRegister:
                break
            definition = def_instr.get(index)
            if definition is None or definition.opcode is not Opcode.ADD:
                break
            a, b = definition.srcs
            if b.__class__ is Immediate:
                offset += int(b.value)
                index = a
            elif a.__class__ is Immediate:
                offset += int(a.value)
                index = b
            else:
                break
        if index is mem.index and offset == mem.offset:
            return mem
        return MemRef(mem.base, index, offset)


def _is_number(value: Value, number) -> bool:
    return value.__class__ is Immediate and value.value == number


def _algebraic(instr: Instruction):
    """Identity simplifications; returns an Instruction or a Value.

    ``instr`` itself comes back when no identity applies.  A rewritten
    instruction is simplified again before it is returned (``mad``
    becomes an ``add`` or a ``mul`` that may simplify further), so the
    result is one a second sweep leaves alone.
    """
    op = instr.opcode
    srcs = instr.srcs
    if op is Opcode.MOV:
        return srcs[0]
    if op is Opcode.ADD:
        if _is_number(srcs[0], 0):
            return srcs[1]
        if _is_number(srcs[1], 0):
            return srcs[0]
    elif op is Opcode.MUL:
        if _is_number(srcs[0], 1):
            return srcs[1]
        if _is_number(srcs[1], 1):
            return srcs[0]
        if ((_is_number(srcs[0], 0) or _is_number(srcs[1], 0))
                and instr.dest.dtype.is_integer):
            return Immediate(0, instr.dest.dtype)
    elif op is Opcode.MAD:
        a, b, c = srcs
        dtype = instr.dest.dtype
        if a.__class__ is Immediate and b.__class__ is Immediate:
            product = eval_op(Opcode.MUL, dtype, (a.value, b.value))
            if product == 0 and dtype.is_integer:
                return c
            return _algebraic(Instruction(
                Opcode.ADD, dest=instr.dest,
                srcs=(Immediate(product, dtype), c),
                coalesced=instr.coalesced,
            ))
        if _is_number(c, 0) and dtype.is_integer:
            return _algebraic(
                Instruction(Opcode.MUL, dest=instr.dest, srcs=(a, b))
            )
    elif op is Opcode.SUB:
        if _is_number(srcs[1], 0):
            return srcs[0]
    elif op is Opcode.SHL or op is Opcode.SHR:
        if _is_number(srcs[1], 0):
            return srcs[0]
    return instr


def constant_fold(kernel: Kernel) -> Kernel:
    """Run folding + propagation + address folding once over a kernel."""
    return constant_fold_changed(kernel)[0]


def constant_fold_changed(
    kernel: Kernel, summary: Optional[DefUse] = None,
) -> Tuple[Kernel, bool]:
    """Like :func:`constant_fold`, reporting whether anything changed.

    The changed flag is exact — statement dataclasses compare
    structurally, so ``folded == original`` holds iff the sweep was an
    identity — and an unchanged kernel is returned as the *same*
    object, letting the fixpoint driver converge without re-emitting
    PTX (see :func:`repro.transforms.pipeline.standard_cleanup`).
    ``summary`` is the input's :class:`DefUse`, when the caller has one.

    A changed kernel is a fixpoint of this pass: a sweep applies the
    propagation environment and the address chains in program order,
    chases each chain to its end and simplifies each rewritten
    instruction again, so a second sweep finds nothing new.  The two
    things a sweep cannot see through — a pruned ``If`` arm, and an
    instruction reading a copy re-emitted at a scope's end that it
    simplified — mark the sweep unsettled, and then it is repeated
    until it changes nothing (no application kernel does either).
    """
    folder = _Folder(summary if summary is not None else DefUse(kernel.body))
    body = folder.fold_body(kernel.body)
    if body == kernel.body:
        return kernel, False
    while folder.unsettled:
        folder = _Folder(DefUse(body))
        again = folder.fold_body(body)
        if again == body:
            break
        body = again
    return clone_kernel(kernel, body=body), True
