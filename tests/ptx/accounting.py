"""Section 4's by-hand PTX accounting, automated over listing text.

The paper's authors counted dynamic instructions and Regions by
reading ``-ptx`` output and multiplying loop bodies by annotated trip
counts.  This module does the same computation on a parsed listing —
no IR access — which both recreates their workflow faithfully and
cross-checks the IR-level analysis: for every kernel the text-derived
``Instr`` and ``Regions`` must equal ``repro.ptx.analysis``'s numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from tests.ptx.parse import PtxInstruction, PtxListing

_BLOCKING_LOAD_SPACES = {"global", "local", "texture"}
_SFU_OPCODES = {"rcp", "sqrt", "rsqrt", "sin", "cos", "ex2", "lg2"}


@dataclasses.dataclass(frozen=True)
class _Loop:
    """One textual loop: [start, end] instruction indices and trips."""

    start: int          # first body instruction (the label's position)
    end: int            # the backward bra
    init: int           # the init mov before the label
    trips: int


class AccountingError(ValueError):
    """The listing is not in the emitter's structured shape."""


def _find_loops(listing: PtxListing) -> List[_Loop]:
    loops = []
    for branch, target in listing.back_edges():
        init = target - 1
        if init < 0:
            raise AccountingError("back edge with no loop header")
        header = listing.instructions[init]
        if header.comment is None or "trips=" not in header.comment:
            raise AccountingError(
                f"loop at instruction {target} lacks a trips annotation"
            )
        trips = int(header.comment.split("trips=")[1].split()[0])
        loops.append(_Loop(start=target, end=branch, init=init, trips=trips))
    # Properly nested by construction; sort outermost-first.
    return sorted(loops, key=lambda l: (l.start, -l.end))


def _check_nesting(loops: List[_Loop]) -> None:
    for i, outer in enumerate(loops):
        for inner in loops[i + 1:]:
            disjoint = inner.start > outer.end or inner.end < outer.start
            nested = inner.start >= outer.start and inner.end <= outer.end
            if not (disjoint or nested):
                raise AccountingError("loops overlap without nesting")


def text_instruction_count(listing: PtxListing) -> float:
    """Dynamic instructions per thread, from text alone.

    Counts every instruction except the final ``exit``; loop bodies
    multiply by their annotated trip counts.  Guarded forward branches
    (``@p bra``) are counted like any other instruction, matching the
    IR analysis's taken-fraction of 1 only for unconditional kernels —
    kernels with data-dependent conditionals need the IR analysis.
    """
    loops = _find_loops(listing)
    _check_nesting(loops)
    multiplier = [1.0] * len(listing.instructions)
    for loop in loops:
        for index in range(loop.start, loop.end + 1):
            multiplier[index] *= loop.trips
    total = 0.0
    for index, instr in enumerate(listing.instructions):
        if instr.opcode == "exit":
            continue
        total += multiplier[index]
    return total


def _expand(listing: PtxListing, loops: List[_Loop]):
    """Yield the dynamic instruction stream of one thread.

    Loops are dispatched at their *init* instruction (the annotated
    mov before the label), so body walks never re-trigger their own
    loop.
    """
    by_init: Dict[int, _Loop] = {l.init: l for l in loops}

    def walk(start: int, end: int):
        index = start
        while index <= end:
            loop = by_init.get(index)
            if loop is not None and loop.end <= end:
                yield listing.instructions[index]      # the init mov
                for _ in range(loop.trips):
                    yield from walk(loop.start, loop.end)
                index = loop.end + 1
                continue
            yield listing.instructions[index]
            index += 1

    yield from walk(0, len(listing.instructions) - 1)


def text_region_count(listing: PtxListing) -> int:
    """Regions per thread from text: blocking events + 1.

    Reproduces the Section 4 rules on the textual stream: barriers and
    long-latency loads block; consecutive independent long-latency
    loads form one unit (a unit closes when an instruction reads one of
    its destination registers); SFU instructions block only when the
    kernel has no longer-latency load at all.
    """
    loops = _find_loops(listing)
    _check_nesting(loops)
    sfu_blocks = not any(
        instr.opcode == "ld" and instr.space in _BLOCKING_LOAD_SPACES
        for instr in listing.instructions
    )
    events = 0
    open_group: Set[str] = set()

    def reads_of(instr: PtxInstruction) -> Tuple[str, ...]:
        if instr.opcode in ("st",):
            return instr.operands
        if instr.opcode in ("bra", "bar", "exit"):
            return ()
        return instr.operands[1:]

    def dest_of(instr: PtxInstruction) -> Optional[str]:
        if instr.opcode in ("st", "bra", "bar", "exit"):
            return None
        return instr.operands[0] if instr.operands else None

    for instr in _expand(listing, loops):
        if instr.opcode == "exit":
            continue
        reads_pending = any(
            any(register in operand for register in open_group)
            for operand in reads_of(instr)
        )
        if instr.opcode == "ld" and instr.space in _BLOCKING_LOAD_SPACES:
            if reads_pending:
                open_group.clear()
            if not open_group:
                events += 1
            destination = dest_of(instr)
            if destination:
                open_group.add(destination)
            continue
        if reads_pending:
            open_group.clear()
        if instr.opcode == "bar":
            open_group.clear()
            events += 1
        elif sfu_blocks and instr.opcode in _SFU_OPCODES:
            events += 1
    return events + 1
