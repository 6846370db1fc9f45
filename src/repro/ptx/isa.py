"""Mapping from kernel IR onto PTX-style mnemonics and cost classes.

PTX is the assembly-like representation nvcc emits with ``-ptx``
(Section 2.3 of the paper).  The analyses only need instruction
identity, mix and blocking structure, so the ISA layer is a naming and
classification table rather than a full assembler.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.arch.memory import MemorySpace
from repro.ir.instructions import Instruction, Opcode


class InstrClass(enum.Enum):
    """Cost/mix classes used by the analyses and the timing simulator."""

    ALU = "alu"
    SFU = "sfu"
    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"
    TEXTURE_LOAD = "texture_load"
    CONST_LOAD = "const_load"
    SHARED_LOAD = "shared_load"
    SHARED_STORE = "shared_store"
    LOCAL_LOAD = "local_load"
    LOCAL_STORE = "local_store"
    BARRIER = "barrier"
    CONTROL = "control"      # loop/branch overhead instructions

    # Identity hash at C level (see DataType.__hash__): classes key the
    # instruction mix and the consumers' per-point tables.
    __hash__ = object.__hash__


_LOAD_CLASS = {
    MemorySpace.GLOBAL: InstrClass.GLOBAL_LOAD,
    MemorySpace.TEXTURE: InstrClass.TEXTURE_LOAD,
    MemorySpace.CONSTANT: InstrClass.CONST_LOAD,
    MemorySpace.SHARED: InstrClass.SHARED_LOAD,
    MemorySpace.LOCAL: InstrClass.LOCAL_LOAD,
}

_STORE_CLASS = {
    MemorySpace.GLOBAL: InstrClass.GLOBAL_STORE,
    MemorySpace.SHARED: InstrClass.SHARED_STORE,
    MemorySpace.LOCAL: InstrClass.LOCAL_STORE,
}


#: the class of every opcode that does not access memory
_OPCODE_CLASS = {
    op: InstrClass.BARRIER if op is Opcode.BAR
    else InstrClass.SFU if op.is_sfu else InstrClass.ALU
    for op in Opcode if not op.is_memory
}


def access_class(opcode: Opcode, space: Optional[MemorySpace]) -> InstrClass:
    """The cost class of an instruction with ``opcode`` that accesses
    ``space`` (``None`` for an instruction without a memory operand)."""
    cls = _OPCODE_CLASS.get(opcode)
    if cls is None:
        cls = (_LOAD_CLASS if opcode is Opcode.LD else _STORE_CLASS)[space]
    return cls


def classify(instr: Instruction) -> InstrClass:
    """Assign the cost class of one IR instruction."""
    mem = instr.mem
    return access_class(instr.opcode, None if mem is None else mem.space)


def mnemonic(instr: Instruction) -> str:
    """PTX-style mnemonic with space and type suffixes."""
    op = instr.opcode
    if op is Opcode.BAR:
        return "bar.sync"
    if op in (Opcode.LD, Opcode.ST):
        space = instr.mem.space.value
        return f"{op.value}.{space}.{instr.mem.dtype}"
    if op is Opcode.SETP:
        dtype = instr.srcs[0].dtype if hasattr(instr.srcs[0], "dtype") else "s32"
        return f"setp.{instr.cmp}.{dtype}"
    if instr.dest is not None:
        return f"{op.value}.{instr.dest.dtype}"
    return op.value


BLOCKING_CLASSES = frozenset(
    {InstrClass.GLOBAL_LOAD, InstrClass.TEXTURE_LOAD, InstrClass.LOCAL_LOAD,
     InstrClass.BARRIER}
)
"""Classes treated as blocking for Region analysis (Section 4).

Global, texture and local loads are long-latency; barriers block until
the whole thread block arrives.  Stores retire into the memory system
without blocking the issuing warp.  SFU instructions are long-latency
only when no longer-latency operation is present in the kernel — the
analysis handles that special case itself.
"""
