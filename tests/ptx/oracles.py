"""Test-only oracles for PTX analysis: the statement-tree walkers.

Before :class:`repro.ptx.view.KernelView`, each analysis walked the
nested statement tree itself.  Those walkers live on here, unchanged
in substance, as the oracles the view-based analyses are tested
against (tests/ir/test_view.py, tests/ptx/test_regions_fast.py) and
timed against (benchmarks/test_bench_static_pipeline.py):

* :func:`count_instructions_reference` and
  :func:`memory_traffic_reference` — the weighted recursions over the
  tree;
* :func:`expand_dynamic` — the per-thread dynamic instruction stream,
  loops expanded by their trip counts (the simulator's flat trace
  oracle in tests/sim/oracles.py replays it too);
* :func:`count_regions_reference` — the straightforward ``Regions``
  computation: the fully expanded stream fed through the region state
  machine one instruction at a time, SFU ops blocking unless
  :func:`kernel_has_longer_latency_than_sfu`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.statements import instructions as iter_instructions
from repro.ir.values import VirtualRegister
from repro.ptx import analysis
from repro.ptx.analysis import (
    LOOP_OVERHEAD_PER_TRIP,
    LOOP_OVERHEAD_SETUP,
    MemoryTraffic,
)
from repro.ptx.isa import BLOCKING_CLASSES, InstrClass, classify


class ControlOp:
    """A synthetic loop/branch overhead instruction (PTX add/setp/bra)."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:
        return f"ControlOp({self.kind})"


LOOP_INIT = ControlOp("loop.init")
LOOP_STEP = ControlOp("loop.step")
LOOP_TEST = ControlOp("loop.test")
LOOP_BRANCH = ControlOp("loop.branch")
IF_BRANCH = ControlOp("if.branch")

DynamicOp = Union[Instruction, ControlOp]


# ----------------------------------------------------------------------
# Instr and mix.

def _count_body(body: List[Statement], mix: Dict[InstrClass, float], weight: float) -> float:
    total = 0.0
    for stmt in body:
        if isinstance(stmt, Instruction):
            total += 1.0
            mix[classify(stmt)] = mix.get(classify(stmt), 0.0) + weight
        elif isinstance(stmt, ForLoop):
            trips = stmt.annotated_trips
            total += LOOP_OVERHEAD_SETUP
            mix[InstrClass.CONTROL] = mix.get(InstrClass.CONTROL, 0.0) + weight * (
                LOOP_OVERHEAD_SETUP + trips * LOOP_OVERHEAD_PER_TRIP
            )
            inner = _count_body(stmt.body, mix, weight * trips)
            total += trips * (inner + LOOP_OVERHEAD_PER_TRIP)
        elif isinstance(stmt, If):
            frac = stmt.taken_fraction
            mix[InstrClass.CONTROL] = mix.get(InstrClass.CONTROL, 0.0) + weight
            total += 1.0  # guarding branch
            then_count = _count_body(stmt.then_body, mix, weight * frac)
            else_count = _count_body(stmt.else_body, mix, weight * (1.0 - frac))
            total += frac * then_count + (1.0 - frac) * else_count
            if stmt.else_body:
                # then-side ends with a jump over the else-side.
                total += frac
                mix[InstrClass.CONTROL] = mix.get(InstrClass.CONTROL, 0.0) + weight * frac
    return total


def count_instructions_reference(kernel: Kernel) -> Tuple[float, Dict[InstrClass, float]]:
    """Per-thread dynamic instruction count and mix, by tree recursion."""
    mix: Dict[InstrClass, float] = {}
    total = _count_body(kernel.body, mix, 1.0)
    return total, mix


# ----------------------------------------------------------------------
# Memory traffic.

def _traffic_body(body: List[Statement], weight: float, acc: Dict[str, float]) -> None:
    for stmt in body:
        if isinstance(stmt, Instruction):
            if stmt.mem is None or not stmt.is_global_access:
                continue
            size = float(stmt.mem.dtype.size_bytes) * weight
            if stmt.opcode is Opcode.LD:
                acc["load"] += size
                if not stmt.coalesced:
                    acc["uload"] += size
            else:
                acc["store"] += size
                if not stmt.coalesced:
                    acc["ustore"] += size
        elif isinstance(stmt, ForLoop):
            _traffic_body(stmt.body, weight * stmt.annotated_trips, acc)
        elif isinstance(stmt, If):
            _traffic_body(stmt.then_body, weight * stmt.taken_fraction, acc)
            _traffic_body(stmt.else_body, weight * (1.0 - stmt.taken_fraction), acc)


def memory_traffic_reference(kernel: Kernel) -> MemoryTraffic:
    """Bytes of global/local traffic one thread generates, by tree
    recursion."""
    acc = {"load": 0.0, "store": 0.0, "uload": 0.0, "ustore": 0.0}
    _traffic_body(kernel.body, 1.0, acc)
    return MemoryTraffic(
        load_bytes=acc["load"],
        store_bytes=acc["store"],
        uncoalesced_load_bytes=acc["uload"],
        uncoalesced_store_bytes=acc["ustore"],
    )


# ----------------------------------------------------------------------
# Dynamic expansion.

def expand_dynamic(kernel: Kernel) -> Iterator[DynamicOp]:
    """Yield the per-thread dynamic instruction stream.

    Loops are expanded by their trip counts; conditionals follow the
    warp-level rule — a fully-biased branch executes one side, anything
    in between is divergent and serializes both sides.  The safety cap
    is read from :data:`repro.ptx.analysis.MAX_EXPANDED_INSTRUCTIONS`
    at call time, so a test that lowers it lowers it here too.
    """
    budget = [analysis.MAX_EXPANDED_INSTRUCTIONS]
    yield from _expand_body(kernel.body, budget)


def _expand_body(body: List[Statement], budget: List[int]) -> Iterator[DynamicOp]:
    for stmt in body:
        budget[0] -= 1
        if budget[0] <= 0:
            raise OverflowError(
                "dynamic expansion exceeds "
                f"{analysis.MAX_EXPANDED_INSTRUCTIONS} instructions; "
                "check trip counts"
            )
        if isinstance(stmt, Instruction):
            yield stmt
        elif isinstance(stmt, ForLoop):
            trips = stmt.annotated_trips
            yield LOOP_INIT
            for _ in range(trips):
                yield from _expand_body(stmt.body, budget)
                yield LOOP_STEP
                yield LOOP_TEST
                yield LOOP_BRANCH
        elif isinstance(stmt, If):
            yield IF_BRANCH
            if stmt.taken_fraction >= 1.0:
                yield from _expand_body(stmt.then_body, budget)
            elif stmt.taken_fraction <= 0.0:
                yield from _expand_body(stmt.else_body, budget)
            else:
                yield from _expand_body(stmt.then_body, budget)
                yield from _expand_body(stmt.else_body, budget)


# ----------------------------------------------------------------------
# Regions.

def kernel_has_longer_latency_than_sfu(kernel: Kernel) -> bool:
    """True when any global/texture/local load exists (Section 4 rule)."""
    return any(instr.is_long_latency for instr in iter_instructions(kernel.body))


class _RegionCounter:
    """State machine implementing the Section 4 region rules."""

    def __init__(self, sfu_blocks: bool) -> None:
        self.sfu_blocks = sfu_blocks
        self.events = 0
        self._open_group: Set[VirtualRegister] = set()

    def feed(self, op: DynamicOp) -> None:
        if isinstance(op, ControlOp):
            return
        cls = classify(op)
        reads_pending = any(
            isinstance(v, VirtualRegister) and v in self._open_group
            for v in op.reads
        )
        if cls in BLOCKING_CLASSES and cls is not InstrClass.BARRIER:
            # A long-latency load: merge into the open group if it is
            # independent of everything already in flight.
            if reads_pending:
                self._open_group.clear()
            if not self._open_group:
                self.events += 1
            self._open_group.add(op.dest)
            return
        if reads_pending:
            self._open_group.clear()
        if cls is InstrClass.BARRIER:
            self._open_group.clear()
            self.events += 1
        elif cls is InstrClass.SFU and self.sfu_blocks:
            self.events += 1

    @property
    def regions(self) -> int:
        return self.events + 1


def count_regions_reference(kernel: Kernel, view=None) -> int:
    """The straightforward ``Regions`` computation: feed the fully
    expanded dynamic stream through the state machine, one instruction
    at a time.  Kept as the differential-testing oracle (and the
    reference pipeline of the static benchmark) for
    :func:`repro.ptx.analysis.count_regions`, whose ``view`` argument
    it accepts and ignores so it can stand in for it."""
    del view
    counter = _RegionCounter(sfu_blocks=not kernel_has_longer_latency_than_sfu(kernel))
    for op in expand_dynamic(kernel):
        counter.feed(op)
    return counter.regions
