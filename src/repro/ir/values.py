"""Operand kinds of the kernel IR.

A value is anything an instruction may read: a virtual register, an
immediate constant, a kernel parameter, or one of the CUDA special
registers (thread and block coordinates).  Virtual registers are the
only things instructions may write.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Union

from repro.arch.memory import MemorySpace
from repro.ir.types import DataType


@dataclasses.dataclass(frozen=True)
class VirtualRegister:
    """A typed, per-thread virtual register.

    Virtual registers are unbounded in number; the ``repro.cubin``
    allocator later maps them onto the 8192-entry physical register
    file to determine registers-per-thread.

    Registers key every dict and set of the cleanup passes, so the
    hash is computed once, at construction.  It is never pickled:
    string hashes differ from one interpreter to the next, so an
    unpickled register hashes afresh, and the pickled state stays the
    ``{name, dtype}`` mapping the kernel store has always written.
    """

    __slots__ = ("name", "dtype", "_hash")

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.dtype)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"name": self.name, "dtype": self.dtype}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "dtype", state["dtype"])
        self.__post_init__()

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclasses.dataclass(frozen=True)
class Immediate:
    """A compile-time constant operand."""

    value: Union[int, float]
    dtype: DataType

    def __post_init__(self) -> None:
        if self.dtype is DataType.F32 and not isinstance(self.value, (int, float)):
            raise TypeError(f"f32 immediate must be numeric, got {self.value!r}")
        if self.dtype.is_integer and not isinstance(self.value, int):
            raise TypeError(f"integer immediate must be int, got {self.value!r}")

    def __str__(self) -> str:
        return repr(self.value)


class SpecialRegister(enum.Enum):
    """CUDA built-in coordinates, read-only within a kernel."""

    TID_X = "tid.x"
    TID_Y = "tid.y"
    TID_Z = "tid.z"
    NTID_X = "ntid.x"
    NTID_Y = "ntid.y"
    NTID_Z = "ntid.z"
    CTAID_X = "ctaid.x"
    CTAID_Y = "ctaid.y"
    NCTAID_X = "nctaid.x"
    NCTAID_Y = "nctaid.y"

    # Identity hash at C level (see DataType.__hash__).
    __hash__ = object.__hash__

    @property
    def dtype(self) -> DataType:
        return DataType.S32

    def __str__(self) -> str:
        return f"%{self.value}"


@dataclasses.dataclass(frozen=True)
class Param:
    """A kernel parameter: a scalar or a pointer to an array.

    Pointer parameters name whole arrays; memory instructions address
    them with element indices rather than raw byte addresses, which
    keeps the functional interpreter and the coalescing analysis simple
    without losing any of the structure the paper's metrics need.
    """

    name: str
    dtype: DataType
    is_pointer: bool = False
    space: MemorySpace = MemorySpace.GLOBAL

    def __post_init__(self) -> None:
        if not self.is_pointer and self.space is not MemorySpace.GLOBAL:
            raise ValueError("scalar parameters have no memory space")

    def __str__(self) -> str:
        if self.is_pointer:
            return f"{self.name}[{self.space.value}]*"
        return self.name


@dataclasses.dataclass(frozen=True)
class SharedArray:
    """A statically-sized shared-memory array declared by a kernel.

    ``shape`` is in elements; the byte footprint feeds straight into the
    per-block shared-memory accounting of ``repro.cubin``.
    """

    name: str
    dtype: DataType
    shape: tuple

    def __post_init__(self) -> None:
        if not self.shape or any(int(d) <= 0 for d in self.shape):
            raise ValueError(f"shared array {self.name} needs positive dims")

    @property
    def num_elements(self) -> int:
        total = 1
        for dim in self.shape:
            total *= int(dim)
        return total

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.dtype.size_bytes

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"__shared__ {self.dtype} {self.name}[{dims}]"


@dataclasses.dataclass(frozen=True)
class LocalArray:
    """A per-thread scratch array in off-chip local memory.

    Local memory is the register-spill space of Table 1 ("Space for
    register spilling, etc.").  The proactive-spilling optimization of
    Section 3.1 materializes these; each thread sees a private copy.
    """

    name: str
    dtype: DataType
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"local array {self.name} needs a positive length")

    @property
    def size_bytes(self) -> int:
        return self.length * self.dtype.size_bytes

    def __str__(self) -> str:
        return f"__local__ {self.dtype} {self.name}[{self.length}]"


Value = Union[VirtualRegister, Immediate, SpecialRegister, Param]
"""Anything an instruction may read."""


def value_dtype(value: Value) -> DataType:
    """The scalar type carried by an operand."""
    if isinstance(value, SpecialRegister):
        return value.dtype
    return value.dtype


def imm(value: Union[int, float], dtype: DataType = None) -> Immediate:
    """Convenience constructor: infer s32 for ints and f32 for floats."""
    if dtype is None:
        dtype = DataType.S32 if isinstance(value, int) else DataType.F32
    return Immediate(value, dtype)
