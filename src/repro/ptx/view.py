"""One flat view of a kernel body, shared by every static consumer.

The static stage asks the same questions of every instruction several
times over: its cost class (``Instr``, the mix, ``Regions``, the warp
trace), the registers it reads and writes (``Regions``, liveness, the
trace's scoreboard), its memory access (traffic, trace bytes) and its
canonical spelling (the fingerprint).  :class:`KernelView` answers
them in one depth-first walk of the statement tree and lays the
answers out flat, so each consumer reads lists instead of re-walking
the tree and re-deriving them:

* ``repro.ptx.analysis`` — ``count_instructions``, ``count_regions``,
  ``memory_traffic``;
* ``repro.cubin.liveness`` — ``analyze_liveness`` and
  ``pipeline_register_pressure``;
* ``repro.sim.fingerprint.kernel_fingerprint``;
* ``repro.sim.trace.build_trace``.

Program points
--------------

Every instruction, loop header, loop latch and ``If`` takes one
program point, in depth-first order; point ``p`` is liveness position
``p + 1``.  For a loop header at ``p``, ``spans[p] == (latch, latch +
1)``: its body is the points strictly between header and latch.  For an
``If`` at ``p``, ``spans[p] == (mid, end)``: its then side is ``[p + 1,
mid)`` and its else side ``[mid, end)``.  Trip counts and taken
fractions are read from the statement (``stmts[p]``), so a loop without
a trip annotation raises where its trips are needed, as it always has.

Registers get dense ids in the order the fingerprint spells them: an
instruction's destination, its sources, then its memory index; a
loop's counter, start, stop and step; an ``If``'s condition.  The
fingerprint's ``r{n}`` is register id ``n``.  ``reads[p]`` lists the
register ids point ``p`` reads (an instruction's sources, then its
memory index; a loop header's register bounds; a latch's counter and
register stop; an ``If``'s register condition) and ``dests[p]`` the id
it writes (-1 for none; a loop header writes its counter).

Views are derived data.  They describe the body as it was when built,
so :class:`ViewCache` keeps them only for kernels that are immutable by
contract, and they are never pickled (:meth:`KernelView.__reduce__`
refuses): stores and pool payloads carry kernels and results, never
views.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.arch.memory import MemorySpace
from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If
from repro.ir.types import CmpOp, DataType
from repro.ir.values import Immediate, Param, SpecialRegister, VirtualRegister
from repro.ptx.isa import InstrClass, access_class

#: program-point kinds
INSTR = 0
LOOP = 1
LATCH = 2
IF = 3

_LONG_LATENCY = (
    InstrClass.GLOBAL_LOAD, InstrClass.LOCAL_LOAD, InstrClass.TEXTURE_LOAD,
)

# Token spellings, looked up by identity-hashed members instead of
# going through enum's ``.value`` property once per operand.
_OPCODE = {op: op.value for op in Opcode}
_CMP = {cmp: cmp.value for cmp in CmpOp}
_DTYPE = {dtype: dtype.value for dtype in DataType}
_SPACE = {space: space.value for space in MemorySpace}
_SPECIAL = {reg: f"s:{reg.value}" for reg in SpecialRegister}


class KernelView:
    """A kernel body linearized once (see the module docstring).

    Per program point: ``kinds`` (a bytearray), ``stmts``, ``classes``
    (the :class:`~repro.ptx.isa.InstrClass` of an instruction, ``None``
    elsewhere), ``reads`` and ``dests``.  Per loop and ``If`` header:
    ``spans``.  Per kernel: ``registers`` (id -> register), ``loops``
    (``(header, latch)`` liveness positions, in latch order),
    ``barriers`` (liveness positions of ``bar.sync``),
    ``has_long_latency`` (any global, local or texture load) and the
    fingerprint's body tokens.
    """

    __slots__ = (
        "size", "kinds", "stmts", "classes", "reads", "dests", "spans",
        "registers", "loops", "barriers", "has_long_latency",
        "_body_text", "_digests",
    )

    def __init__(self, kernel: Kernel) -> None:
        kinds = bytearray()
        stmts: list = []
        classes: List[Optional[InstrClass]] = []
        reads: List[Tuple[int, ...]] = []
        #: one tuple per distinct read set (unrolled bodies repeat them)
        read_sets: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        dests: List[int] = []
        spans: Dict[int, Tuple[int, int]] = {}
        registers: List[VirtualRegister] = []
        names: List[str] = []
        loops: List[Tuple[int, int]] = []
        barriers: List[int] = []
        tokens: List[str] = []
        ids: Dict[VirtualRegister, int] = {}
        #: ``ids`` by object identity, which spares the register's
        #: Python-level hash on every later reference to that object
        #: (the body keeps every object alive while this runs)
        ids_by_object: Dict[int, int] = {}
        params = {p: i for i, p in enumerate(kernel.params)}
        shared = {a: i for i, a in enumerate(kernel.shared_arrays)}
        local = {a: i for i, a in enumerate(kernel.local_arrays)}
        bases: Dict[int, str] = {}      # by object identity, like ids
        long_latency = False

        def register(reg: VirtualRegister) -> int:
            rid = ids_by_object.get(id(reg))
            if rid is None:
                rid = ids.get(reg)
                if rid is None:
                    rid = ids[reg] = len(registers)
                    registers.append(reg)
                    names.append(f"r{rid}")
                ids_by_object[id(reg)] = rid
            return rid

        def operand(value, read: List[int]) -> str:
            kind = type(value)
            if kind is VirtualRegister:
                rid = ids_by_object.get(id(value))
                if rid is None:
                    rid = register(value)
                read.append(rid)
                return names[rid]
            if kind is Immediate:
                return f"i:{value.value!r}:{_DTYPE[value.dtype]}"
            if kind is SpecialRegister:
                return _SPECIAL[value]
            if kind is Param:
                return f"p:{params[value]}"
            raise TypeError(f"unserializable operand {value!r}")

        def base_token(base) -> str:
            token = bases.get(id(base))
            if token is None:
                index = params.get(base)
                if index is not None:
                    token = f"p:{index}"
                else:
                    index = shared.get(base)
                    token = (f"sh:{index}" if index is not None
                             else f"lo:{local[base]}")
                bases[id(base)] = token
            return token

        def linearize(body) -> None:
            nonlocal long_latency
            for stmt in body:
                kind = type(stmt)
                if kind is Instruction:
                    point = len(kinds)
                    opcode = stmt.opcode
                    dest = stmt.dest
                    read: List[int] = []
                    dest_id = -1 if dest is None else register(dest)
                    srcs = ",".join([operand(s, read) for s in stmt.srcs])
                    mem = stmt.mem
                    if mem is None:
                        cls = access_class(opcode, None)
                        mem_token = ""
                        if cls is InstrClass.BARRIER:
                            barriers.append(point + 1)
                    else:
                        space = mem.space
                        cls = access_class(opcode, space)
                        mem_token = "@".join((
                            base_token(mem.base),
                            operand(mem.index, read),
                            str(mem.offset),
                            _SPACE[space],
                            _DTYPE[mem.base.dtype],
                        ))
                        if cls in _LONG_LATENCY:
                            long_latency = True
                    tokens.append("|".join((
                        "I",
                        _OPCODE[opcode],
                        "" if stmt.cmp is None else _CMP[stmt.cmp],
                        "" if dest is None else names[dest_id],
                        srcs,
                        mem_token,
                        "c" if stmt.coalesced else "u",
                    )))
                    kinds.append(INSTR)
                    stmts.append(stmt)
                    classes.append(cls)
                    read_set = tuple(read)
                    reads.append(read_sets.setdefault(read_set, read_set))
                    dests.append(dest_id)
                elif kind is ForLoop:
                    header = len(kinds)
                    read = []
                    counter = register(stmt.counter)
                    trips = "?" if stmt.trip_count is None else str(stmt.trip_count)
                    tokens.append("|".join((
                        "F",
                        trips,
                        names[counter],
                        operand(stmt.start, read),
                        operand(stmt.stop, read),
                        operand(stmt.step, read),
                    )))
                    kinds.append(LOOP)
                    stmts.append(stmt)
                    classes.append(None)
                    reads.append(tuple(read))
                    dests.append(counter)
                    linearize(stmt.body)
                    tokens.append("EndF")
                    latch = len(kinds)
                    # The latch re-reads the counter, and a register
                    # stop for the exit test.
                    stop = stmt.stop
                    kinds.append(LATCH)
                    stmts.append(stmt)
                    classes.append(None)
                    reads.append(
                        (counter, ids[stop]) if type(stop) is VirtualRegister
                        else (counter,)
                    )
                    dests.append(-1)
                    spans[header] = (latch, latch + 1)
                    loops.append((header + 1, latch + 1))
                elif kind is If:
                    point = len(kinds)
                    read = []
                    tokens.append(
                        f"C|{operand(stmt.cond, read)}|{stmt.taken_fraction!r}"
                    )
                    kinds.append(IF)
                    stmts.append(stmt)
                    classes.append(None)
                    reads.append(tuple(read))
                    dests.append(-1)
                    linearize(stmt.then_body)
                    tokens.append("Else")
                    mid = len(kinds)
                    linearize(stmt.else_body)
                    tokens.append("EndC")
                    spans[point] = (mid, len(kinds))
                else:
                    raise TypeError(f"unserializable statement {stmt!r}")

        linearize(kernel.body)
        self.size = len(kinds)
        self.kinds = kinds
        self.stmts = stmts
        self.classes = classes
        self.reads = reads
        self.dests = dests
        self.spans = spans
        self.registers = registers
        self.loops = loops
        self.barriers = barriers
        self.has_long_latency = long_latency
        self._body_text = "\n".join(tokens)
        self._digests: Dict[str, str] = {}

    def digest(self, header: str) -> str:
        """sha256 hex digest of ``header``, a newline, and the body
        tokens (just ``header`` for an empty body): the fingerprint
        of the kernel whose non-body tokens ``header`` joins."""
        found = self._digests.get(header)
        if found is None:
            text = header + "\n" + self._body_text if self._body_text else header
            found = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self._digests[header] = found
        return found

    def __reduce__(self):
        raise TypeError(
            "a KernelView is derived from its kernel and is never pickled"
        )


class ViewCache:
    """Views of kernels that are never mutated once built.

    Keyed by the identity of a kernel's body and declaration lists,
    so kernels that share them — MRI-FHD's invocation splits are
    ``dataclasses.replace`` copies that change only name and grid —
    share one view.  Each entry holds its kernel, so no key can be
    recycled while the entry lives.  Use it only where kernels are
    immutable by contract (an application's built kernels); a kernel
    anyone may still edit gets a fresh :class:`KernelView`.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[Kernel, KernelView]] = {}

    def view(self, kernel: Kernel) -> KernelView:
        key = (id(kernel.body), id(kernel.params), id(kernel.shared_arrays),
               id(kernel.local_arrays))
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (kernel, KernelView(kernel))
        return entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


__all__ = ["IF", "INSTR", "LATCH", "LOOP", "KernelView", "ViewCache"]
