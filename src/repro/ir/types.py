"""Scalar data types of the kernel IR.

The GeForce 8800 is a 32-bit machine: every register is 32 bits wide
and the SP datapath handles single-precision floats and 32-bit integers
(Section 2.1).  Predicates occupy a register in our model, matching the
PTX convention of allocating predicate registers separately but keeping
the resource arithmetic simple.
"""

from __future__ import annotations

import enum


class DataType(enum.Enum):
    """A 32-bit scalar type, or a predicate."""

    F32 = "f32"
    S32 = "s32"
    U32 = "u32"
    PRED = "pred"

    # Members are singletons compared by identity; the C-level identity
    # hash skips enum's Python-level ``hash(self._name_)`` on the
    # register-dict and opcode-set lookups that dominate the passes.
    __hash__ = object.__hash__

    @property
    def size_bytes(self) -> int:
        """Storage footprint of one element in memory."""
        if self is DataType.PRED:
            return 1
        return 4

    @property
    def is_float(self) -> bool:
        return self is DataType.F32

    @property
    def is_integer(self) -> bool:
        return self in (DataType.S32, DataType.U32)

    def __str__(self) -> str:
        return self.value


class CmpOp(enum.Enum):
    """Comparison operators for ``setp`` instructions."""

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"

    # Identity hash at C level (see DataType.__hash__).
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value
