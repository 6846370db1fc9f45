"""Instructions of the kernel IR.

The opcode vocabulary mirrors the portion of PTX the paper relies on:
single-precision and integer ALU operations, the SFU transcendentals
(reciprocal square root, sine, cosine — Section 2.1), loads and stores
against each memory space, and barrier synchronization.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple, Union

from repro.arch.memory import MemorySpace
from repro.ir.types import CmpOp, DataType
from repro.ir.values import LocalArray, Param, SharedArray, Value, VirtualRegister


class Opcode(enum.Enum):
    """Operation kinds, grouped by functional unit."""

    # SP arithmetic.
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"            # dest = src0 * src1 + src2
    DIV = "div"
    REM = "rem"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CVT = "cvt"            # convert between f32 and integer types
    SETP = "setp"          # predicate = src0 <cmp> src1
    SELP = "selp"          # dest = pred ? src0 : src1

    # SFU transcendentals (low latency on dedicated units).
    RCP = "rcp"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    SIN = "sin"
    COS = "cos"
    EX2 = "ex2"
    LG2 = "lg2"

    # Memory.
    LD = "ld"
    ST = "st"

    # Synchronization.
    BAR = "bar.sync"

    # Identity hash at C level (see DataType.__hash__).
    __hash__ = object.__hash__

    @property
    def is_sfu(self) -> bool:
        return self in _SFU_OPS

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LD, Opcode.ST)

    @property
    def is_barrier(self) -> bool:
        return self is Opcode.BAR


_SFU_OPS = frozenset(
    {Opcode.RCP, Opcode.SQRT, Opcode.RSQRT, Opcode.SIN, Opcode.COS,
     Opcode.EX2, Opcode.LG2}
)

ARITY = {
    Opcode.MOV: 1, Opcode.ADD: 2, Opcode.SUB: 2, Opcode.MUL: 2,
    Opcode.MAD: 3, Opcode.DIV: 2, Opcode.REM: 2, Opcode.MIN: 2,
    Opcode.MAX: 2, Opcode.ABS: 1, Opcode.NEG: 1, Opcode.AND: 2,
    Opcode.OR: 2, Opcode.XOR: 2, Opcode.SHL: 2, Opcode.SHR: 2,
    Opcode.CVT: 1, Opcode.SETP: 2, Opcode.SELP: 3,
    Opcode.RCP: 1, Opcode.SQRT: 1, Opcode.RSQRT: 1, Opcode.SIN: 1,
    Opcode.COS: 1, Opcode.EX2: 1, Opcode.LG2: 1,
}
"""Source-operand counts for register-to-register opcodes."""


@dataclasses.dataclass(frozen=True)
class MemRef:
    """An element-indexed reference into an array.

    ``base`` names the array — a pointer Param for global, constant or
    texture space, or a SharedArray for shared space.  ``index`` is the
    flat element index.  Using element indices (not byte addresses)
    keeps interpretation exact while preserving everything the analyses
    need: which space is touched, how many bytes move, and whether
    consecutive threads touch consecutive elements (coalescing).
    """

    base: Union[Param, SharedArray, LocalArray]
    index: Value
    offset: int = 0

    @property
    def space(self) -> MemorySpace:
        if isinstance(self.base, SharedArray):
            return MemorySpace.SHARED
        if isinstance(self.base, LocalArray):
            return MemorySpace.LOCAL
        return self.base.space

    @property
    def dtype(self) -> DataType:
        return self.base.dtype

    def __str__(self) -> str:
        if self.offset:
            return f"{self.base.name}[{self.index}+{self.offset}]"
        return f"{self.base.name}[{self.index}]"


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One IR instruction.

    ``dest`` is None for stores and barriers.  ``mem`` is set only for
    LD/ST.  ``cmp`` is set only for SETP.  ``coalesced`` is a static
    annotation on global memory operations: True when consecutive
    threads of a warp access consecutive elements (the Table 1 note on
    coalescing); the timing simulator charges uncoalesced accesses a
    bandwidth penalty.
    """

    opcode: Opcode
    dest: Optional[VirtualRegister] = None
    srcs: Tuple[Value, ...] = ()
    mem: Optional[MemRef] = None
    cmp: Optional[CmpOp] = None
    coalesced: bool = True

    def __post_init__(self) -> None:
        if self.opcode in ARITY:
            expected = ARITY[self.opcode]
            if len(self.srcs) != expected:
                raise ValueError(
                    f"{self.opcode.value} takes {expected} operands, "
                    f"got {len(self.srcs)}"
                )
            if self.dest is None:
                raise ValueError(f"{self.opcode.value} requires a destination")
            if self.mem is not None:
                raise ValueError(f"{self.opcode.value} takes no memory operand")
        if self.opcode is Opcode.SETP and self.cmp is None:
            raise ValueError("setp requires a comparison operator")
        if self.opcode is not Opcode.SETP and self.cmp is not None:
            raise ValueError(f"{self.opcode.value} takes no comparison operator")
        if self.opcode is Opcode.LD:
            if self.mem is None or self.dest is None or self.srcs:
                raise ValueError("ld requires a memory operand and a destination")
            if self.mem.space.is_read_only is False and self.mem.space not in (
                MemorySpace.GLOBAL, MemorySpace.SHARED, MemorySpace.LOCAL
            ):
                raise ValueError(f"cannot load from {self.mem.space}")
        if self.opcode is Opcode.ST:
            if self.mem is None or self.dest is not None or len(self.srcs) != 1:
                raise ValueError("st requires a memory operand and one source")
            if self.mem.space.is_read_only:
                raise ValueError(f"cannot store to read-only {self.mem.space}")
        if self.opcode is Opcode.BAR and (
            self.dest is not None or self.srcs or self.mem is not None
        ):
            raise ValueError("bar.sync takes no operands")

    @property
    def is_global_access(self) -> bool:
        return (
            self.mem is not None
            and self.mem.space in (MemorySpace.GLOBAL, MemorySpace.LOCAL)
        )

    @property
    def is_long_latency(self) -> bool:
        """Long-latency per Section 4: global/texture/local *loads*.

        Stores retire into the memory system without blocking the
        issuing warp, so they neither delimit regions nor disqualify
        SFU instructions from counting as the longest-latency ops.
        """
        return (
            self.opcode is Opcode.LD
            and self.mem.space in (
                MemorySpace.GLOBAL, MemorySpace.LOCAL, MemorySpace.TEXTURE
            )
        )

    @property
    def reads(self) -> Tuple[Value, ...]:
        """All values this instruction reads, including address indices."""
        operands = list(self.srcs)
        if self.mem is not None:
            operands.append(self.mem.index)
        return tuple(operands)

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.cmp is not None:
            parts.append(f".{self.cmp}")
        head = "".join(parts)
        operands = []
        if self.dest is not None:
            operands.append(str(self.dest))
        if self.mem is not None and self.opcode is Opcode.LD:
            operands.append(str(self.mem))
        operands.extend(str(s) for s in self.srcs)
        if self.mem is not None and self.opcode is Opcode.ST:
            operands.insert(0, str(self.mem))
        return f"{head} {', '.join(operands)}" if operands else head
