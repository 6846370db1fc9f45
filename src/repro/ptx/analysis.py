"""Static execution analysis of kernel IR (the paper's Section 4 inputs).

Three quantities feed the performance metrics:

* ``Instr`` — dynamic instructions per thread, computed by weighting
  loop bodies with their (annotated or static) trip counts, exactly as
  the paper does by hand on ``-ptx`` output.
* ``Regions`` — the number of dynamic instruction intervals delimited
  by blocking instructions or kernel entry/exit.  Blocking instructions
  are barriers and long-latency loads; *sequences of independent
  long-latency loads count as a single unit*; SFU instructions count as
  long-latency only when no longer-latency operation exists in the
  kernel.
* the instruction mix and per-thread global-memory traffic, used by the
  bandwidth-boundedness screen and the timing simulator.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.ir.instructions import Instruction, Opcode
from repro.ir.kernel import Kernel
from repro.ir.statements import ForLoop, If, Statement
from repro.ir.values import VirtualRegister
from repro.ptx.isa import BLOCKING_CLASSES, InstrClass, classify

MAX_EXPANDED_INSTRUCTIONS = 5_000_000
"""Safety cap on dynamic expansion (guards bad trip annotations)."""


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

LOOP_OVERHEAD_PER_TRIP = 3   # add + setp + bra
LOOP_OVERHEAD_SETUP = 1      # init mov

DynamicOp = Union[Instruction, ControlOp]


# ----------------------------------------------------------------------
# Instr and mix (weighted recursion; no expansion).

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


def count_instructions(kernel: Kernel) -> Tuple[float, Dict[InstrClass, float]]:
    """Per-thread dynamic instruction count and mix.

    The mix maps each class to its dynamic count per thread; loop and
    branch overhead lands in ``InstrClass.CONTROL``.
    """
    mix: Dict[InstrClass, float] = {}
    total = _count_body_weighted(kernel.body, mix)
    return total, mix


def _count_body_weighted(body: List[Statement], mix: Dict[InstrClass, float]) -> float:
    return _count_body(body, mix, 1.0)


# ----------------------------------------------------------------------
# Dynamic expansion (drives Regions and the simulator trace).

def expand_dynamic(kernel: Kernel) -> Iterator[DynamicOp]:
    """Yield the per-thread dynamic instruction stream.

    Loops are expanded by their trip counts; conditionals follow the
    warp-level rule — a fully-biased branch executes one side, anything
    in between is divergent and serializes both sides.
    """
    budget = [MAX_EXPANDED_INSTRUCTIONS]
    yield from _expand_body(kernel.body, budget)


def _expand_body(body: List[Statement], budget: List[int]) -> Iterator[DynamicOp]:
    for stmt in body:
        budget[0] -= 1
        if budget[0] <= 0:
            raise OverflowError(
                "dynamic expansion exceeds "
                f"{MAX_EXPANDED_INSTRUCTIONS} instructions; check trip counts"
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
    """True when any global/texture/local access exists (Section 4 rule)."""
    from repro.ir.statements import instructions as iter_instructions

    return any(instr.is_long_latency for instr in iter_instructions(kernel.body))


class _RegionCounter:
    """State machine implementing the Section 4 region rules."""

    def __init__(self, sfu_blocks: bool) -> None:
        self.sfu_blocks = sfu_blocks
        self.events = 0
        self._open_group: Set[VirtualRegister] = set()

    def snapshot(self) -> frozenset:
        """The state that determines all future transitions."""
        return frozenset(self._open_group)

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
                self._close_group()
            if not self._open_group:
                self.events += 1
            self._open_group.add(op.dest)
            return
        if reads_pending:
            self._close_group()
        if cls is InstrClass.BARRIER:
            self._close_group()
            self.events += 1
        elif cls is InstrClass.SFU and self.sfu_blocks:
            self.events += 1

    def _close_group(self) -> None:
        self._open_group.clear()

    @property
    def regions(self) -> int:
        return self.events + 1


def _expanded_visits(body: List[Statement]) -> int:
    """Statement visits :func:`expand_dynamic` would perform on ``body``.

    Mirrors the budget accounting of ``_expand_body`` exactly (one
    decrement per statement visit, loop bodies multiplied by their trip
    counts, conditionals following the warp-level expansion rule), so
    the fast region counter can reproduce the reference path's
    safety-cap behaviour without enumerating anything.
    """
    total = 0
    for stmt in body:
        total += 1
        if isinstance(stmt, ForLoop):
            total += stmt.annotated_trips * _expanded_visits(stmt.body)
        elif isinstance(stmt, If):
            if stmt.taken_fraction >= 1.0:
                total += _expanded_visits(stmt.then_body)
            elif stmt.taken_fraction <= 0.0:
                total += _expanded_visits(stmt.else_body)
            else:
                total += _expanded_visits(stmt.then_body)
                total += _expanded_visits(stmt.else_body)
    return total


def _feed_statements(body: List[Statement], counter: _RegionCounter) -> None:
    for stmt in body:
        if isinstance(stmt, Instruction):
            counter.feed(stmt)
        elif isinstance(stmt, ForLoop):
            _feed_loop(stmt, counter)
        elif isinstance(stmt, If):
            if stmt.taken_fraction >= 1.0:
                _feed_statements(stmt.then_body, counter)
            elif stmt.taken_fraction <= 0.0:
                _feed_statements(stmt.else_body, counter)
            else:
                _feed_statements(stmt.then_body, counter)
                _feed_statements(stmt.else_body, counter)


def _feed_loop(loop: ForLoop, counter: _RegionCounter) -> None:
    """Feed a loop's iterations with exact cycle extrapolation.

    The counter's only state is the set of in-flight load destinations,
    and its transition over one iteration is a deterministic function of
    that set.  States are drawn from a finite universe, so the sequence
    of iteration-entry states must cycle; once a state recurs, every
    later iteration repeats the cycle's event delta exactly.  We replay
    iterations until a state recurs, add ``whole_cycles x delta`` in one
    step, and replay the (shorter-than-a-cycle) tail concretely — the
    result is bit-identical to feeding the expanded stream, not an
    approximation (pinned against ``count_regions_reference`` in
    tests/ptx/oracles.py).
    """
    trips = loop.annotated_trips
    seen: Dict[frozenset, Tuple[int, int]] = {}
    iteration = 0
    while iteration < trips:
        state = counter.snapshot()
        known = seen.get(state)
        if known is not None:
            first_iteration, events_then = known
            period = iteration - first_iteration
            per_cycle = counter.events - events_then
            whole_cycles = (trips - iteration) // period
            counter.events += whole_cycles * per_cycle
            iteration += whole_cycles * period
            # A whole number of cycles returns to this exact state, so
            # the tail (shorter than one cycle) replays concretely.
            for _ in range(trips - iteration):
                _feed_statements(loop.body, counter)
            return
        seen[state] = (iteration, counter.events)
        _feed_statements(loop.body, counter)
        iteration += 1


def count_regions(kernel: Kernel) -> int:
    """``Regions`` of Equation 2 for one kernel configuration.

    Loop-compressed: instead of expanding every iteration (the dominant
    cost of the static stage — unrolled matmul kernels expand to ~10k
    dynamic instructions each), the region state machine detects when a
    loop's iteration-entry state recurs and extrapolates the remaining
    iterations arithmetically.  Bit-identical to the naive expansion,
    including the :data:`MAX_EXPANDED_INSTRUCTIONS` safety cap.
    """
    if _expanded_visits(kernel.body) >= MAX_EXPANDED_INSTRUCTIONS:
        raise OverflowError(
            "dynamic expansion exceeds "
            f"{MAX_EXPANDED_INSTRUCTIONS} instructions; check trip counts"
        )
    counter = _RegionCounter(sfu_blocks=not kernel_has_longer_latency_than_sfu(kernel))
    _feed_statements(kernel.body, counter)
    return counter.regions


# ----------------------------------------------------------------------
# Memory traffic.

@dataclasses.dataclass(frozen=True)
class MemoryTraffic:
    """Per-thread global-memory traffic summary."""

    load_bytes: float
    store_bytes: float
    uncoalesced_load_bytes: float
    uncoalesced_store_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.load_bytes + self.store_bytes


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


def memory_traffic(kernel: Kernel) -> MemoryTraffic:
    """Bytes of global/local traffic one thread generates."""
    acc = {"load": 0.0, "store": 0.0, "uload": 0.0, "ustore": 0.0}
    _traffic_body(kernel.body, 1.0, acc)
    return MemoryTraffic(
        load_bytes=acc["load"],
        store_bytes=acc["store"],
        uncoalesced_load_bytes=acc["uload"],
        uncoalesced_store_bytes=acc["ustore"],
    )


# ----------------------------------------------------------------------
# Aggregate profile.

@dataclasses.dataclass(frozen=True)
class ExecutionProfile:
    """Everything the metrics need to know about one configuration."""

    instructions: float
    regions: int
    mix: Dict[InstrClass, float]
    traffic: MemoryTraffic

    @property
    def instructions_per_region(self) -> float:
        return self.instructions / self.regions


def profile_kernel(kernel: Kernel) -> ExecutionProfile:
    """Run the full static analysis on one kernel."""
    instructions, mix = count_instructions(kernel)
    return ExecutionProfile(
        instructions=instructions,
        regions=count_regions(kernel),
        mix=mix,
        traffic=memory_traffic(kernel),
    )
