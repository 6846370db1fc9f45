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

Each reads the kernel's :class:`~repro.ptx.view.KernelView` — its
program points, classes, register ids and loop and branch ranges —
instead of walking the statement tree.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.ir.kernel import Kernel
from repro.ptx.isa import InstrClass
from repro.ptx.view import INSTR, LOOP, KernelView

MAX_EXPANDED_INSTRUCTIONS = 5_000_000
"""Safety cap on dynamic expansion (guards bad trip annotations)."""

LOOP_OVERHEAD_PER_TRIP = 3   # add + setp + bra
LOOP_OVERHEAD_SETUP = 1      # init mov

_CONTROL = InstrClass.CONTROL


# ----------------------------------------------------------------------
# Instr and mix (weighted, over the view's nested ranges; no expansion).

def _count_range(
    view: KernelView, start: int, stop: int,
    mix: Dict[InstrClass, float], weight: float,
) -> float:
    """Dynamic instructions of the points in ``[start, stop)``.

    Sums keep the association order of the nested statement walk:
    ``total`` builds bottom-up, one loop as ``trips * (inner +
    overhead)``, and ``mix`` adds each point's weight in program order,
    so no count moves in its last bits.
    """
    kinds = view.kinds
    classes = view.classes
    spans = view.spans
    total = 0.0
    point = start
    while point < stop:
        kind = kinds[point]
        if kind == INSTR:
            total += 1.0
            cls = classes[point]
            mix[cls] = mix.get(cls, 0.0) + weight
            point += 1
            continue
        mid, end = spans[point]
        stmt = view.stmts[point]
        if kind == LOOP:
            trips = stmt.annotated_trips
            total += LOOP_OVERHEAD_SETUP
            mix[_CONTROL] = mix.get(_CONTROL, 0.0) + weight * (
                LOOP_OVERHEAD_SETUP + trips * LOOP_OVERHEAD_PER_TRIP
            )
            inner = _count_range(view, point + 1, mid, mix, weight * trips)
            total += trips * (inner + LOOP_OVERHEAD_PER_TRIP)
        else:
            frac = stmt.taken_fraction
            mix[_CONTROL] = mix.get(_CONTROL, 0.0) + weight
            total += 1.0  # guarding branch
            then_count = _count_range(view, point + 1, mid, mix, weight * frac)
            else_count = _count_range(view, mid, end, mix, weight * (1.0 - frac))
            total += frac * then_count + (1.0 - frac) * else_count
            if mid < end:
                # then-side ends with a jump over the else-side.
                total += frac
                mix[_CONTROL] = mix.get(_CONTROL, 0.0) + weight * frac
        point = end
    return total


def count_instructions(
    kernel: Kernel, view: Optional[KernelView] = None,
) -> Tuple[float, Dict[InstrClass, float]]:
    """Per-thread dynamic instruction count and mix.

    The mix maps each class to its dynamic count per thread; loop and
    branch overhead lands in ``InstrClass.CONTROL``.  ``view`` is the
    kernel's :class:`~repro.ptx.view.KernelView` when the caller has
    one; otherwise one is built.
    """
    if view is None:
        view = KernelView(kernel)
    mix: Dict[InstrClass, float] = {}
    total = _count_range(view, 0, view.size, mix, 1.0)
    return total, mix


# ----------------------------------------------------------------------
# Regions.

#: what a point means to the region state machine
_PLAIN, _LOAD, _BARRIER, _SFU = 0, 1, 2, 3
_REGION_ROLE = {
    InstrClass.GLOBAL_LOAD: _LOAD,
    InstrClass.TEXTURE_LOAD: _LOAD,
    InstrClass.LOCAL_LOAD: _LOAD,
    InstrClass.BARRIER: _BARRIER,
    InstrClass.SFU: _SFU,
}


def _expanded_visits(view: KernelView, start: int, stop: int) -> int:
    """Statement visits the full dynamic expansion performs on the
    points in ``[start, stop)``: one per statement, loop bodies
    multiplied by their trip counts, conditionals following the
    warp-level rule (a fully biased branch runs one side, anything in
    between both).  Lets :func:`count_regions` apply the expansion's
    safety cap without enumerating anything."""
    kinds = view.kinds
    spans = view.spans
    total = 0
    point = start
    while point < stop:
        total += 1
        kind = kinds[point]
        if kind == INSTR:
            point += 1
            continue
        mid, end = spans[point]
        stmt = view.stmts[point]
        if kind == LOOP:
            total += stmt.annotated_trips * _expanded_visits(view, point + 1, mid)
        elif stmt.taken_fraction >= 1.0:
            total += _expanded_visits(view, point + 1, mid)
        elif stmt.taken_fraction <= 0.0:
            total += _expanded_visits(view, mid, end)
        else:
            total += _expanded_visits(view, point + 1, end)
        point = end
    return total


class _RegionCounter:
    """The Section 4 region rules over a view's program points.

    The only state is the group of in-flight long-latency loads (their
    destination ids).  A load joins the open group unless it reads a
    member; reading a member closes the group; a barrier closes it and
    blocks; an SFU op blocks only when nothing longer-latency exists.
    """

    def __init__(self, view: KernelView, sfu_blocks: bool) -> None:
        self.view = view
        self.roles = [_REGION_ROLE.get(cls, _PLAIN) for cls in view.classes]
        self.sfu_blocks = sfu_blocks
        self.events = 0
        self.open_group: set = set()

    def feed(self, start: int, stop: int) -> None:
        view = self.view
        kinds = view.kinds
        reads = view.reads
        dests = view.dests
        roles = self.roles
        sfu_blocks = self.sfu_blocks
        open_group = self.open_group
        point = start
        while point < stop:
            kind = kinds[point]
            if kind == INSTR:
                role = roles[point]
                if open_group:
                    for rid in reads[point]:
                        if rid in open_group:
                            open_group.clear()
                            break
                if role == _LOAD:
                    # A long-latency load: merge into the open group if
                    # it is independent of everything already in flight.
                    if not open_group:
                        self.events += 1
                    open_group.add(dests[point])
                elif role == _BARRIER:
                    open_group.clear()
                    self.events += 1
                elif role == _SFU and sfu_blocks:
                    self.events += 1
                point += 1
                continue
            mid, end = view.spans[point]
            stmt = view.stmts[point]
            if kind == LOOP:
                self._feed_loop(point + 1, mid, stmt.annotated_trips)
            elif stmt.taken_fraction >= 1.0:
                self.feed(point + 1, mid)
            elif stmt.taken_fraction <= 0.0:
                self.feed(mid, end)
            else:
                self.feed(point + 1, end)
            point = end

    def _feed_loop(self, start: int, stop: int, trips: int) -> None:
        """Feed a loop's iterations with exact cycle extrapolation.

        The transition over one iteration is a deterministic function
        of the open group, and groups are drawn from a finite universe,
        so the sequence of iteration-entry states must cycle; once a
        state recurs, every later iteration repeats the cycle's event
        delta exactly.  Iterations replay until a state recurs, then
        ``whole_cycles x delta`` is added in one step and the
        (shorter-than-a-cycle) tail replays concretely — bit-identical
        to feeding the expanded stream (pinned against
        ``count_regions_reference`` in tests/ptx/oracles.py).
        """
        seen: Dict[frozenset, Tuple[int, int]] = {}
        iteration = 0
        while iteration < trips:
            state = frozenset(self.open_group)
            known = seen.get(state)
            if known is not None:
                first_iteration, events_then = known
                period = iteration - first_iteration
                per_cycle = self.events - events_then
                whole_cycles = (trips - iteration) // period
                self.events += whole_cycles * per_cycle
                iteration += whole_cycles * period
                # A whole number of cycles returns to this exact state,
                # so the tail (shorter than one cycle) replays concretely.
                for _ in range(trips - iteration):
                    self.feed(start, stop)
                return
            seen[state] = (iteration, self.events)
            self.feed(start, stop)
            iteration += 1


def count_regions(kernel: Kernel, view: Optional[KernelView] = None) -> int:
    """``Regions`` of Equation 2 for one kernel configuration.

    Loop-compressed: instead of expanding every iteration (the dominant
    cost of the static stage — unrolled matmul kernels expand to ~10k
    dynamic instructions each), the region state machine detects when a
    loop's iteration-entry state recurs and extrapolates the remaining
    iterations arithmetically.  Bit-identical to the naive expansion,
    including the :data:`MAX_EXPANDED_INSTRUCTIONS` safety cap.
    """
    if view is None:
        view = KernelView(kernel)
    if _expanded_visits(view, 0, view.size) >= MAX_EXPANDED_INSTRUCTIONS:
        raise OverflowError(
            "dynamic expansion exceeds "
            f"{MAX_EXPANDED_INSTRUCTIONS} instructions; check trip counts"
        )
    counter = _RegionCounter(view, sfu_blocks=not view.has_long_latency)
    counter.feed(0, view.size)
    return counter.events + 1


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


#: the classes that move global (or local) memory, and whether they load
_TRAFFIC_LOADS = {
    InstrClass.GLOBAL_LOAD: True,
    InstrClass.LOCAL_LOAD: True,
    InstrClass.GLOBAL_STORE: False,
    InstrClass.LOCAL_STORE: False,
}


def _traffic_range(
    view: KernelView, start: int, stop: int, weight: float, acc: List[float],
) -> None:
    """Add the weighted bytes of ``[start, stop)`` to ``acc`` (loads,
    stores, uncoalesced loads, uncoalesced stores), in program order."""
    kinds = view.kinds
    classes = view.classes
    stmts = view.stmts
    point = start
    while point < stop:
        kind = kinds[point]
        if kind == INSTR:
            is_load = _TRAFFIC_LOADS.get(classes[point])
            if is_load is not None:
                stmt = stmts[point]
                size = float(stmt.mem.dtype.size_bytes) * weight
                if is_load:
                    acc[0] += size
                    if not stmt.coalesced:
                        acc[2] += size
                else:
                    acc[1] += size
                    if not stmt.coalesced:
                        acc[3] += size
            point += 1
            continue
        mid, end = view.spans[point]
        stmt = stmts[point]
        if kind == LOOP:
            _traffic_range(view, point + 1, mid, weight * stmt.annotated_trips, acc)
        else:
            frac = stmt.taken_fraction
            _traffic_range(view, point + 1, mid, weight * frac, acc)
            _traffic_range(view, mid, end, weight * (1.0 - frac), acc)
        point = end


def memory_traffic(
    kernel: Kernel, view: Optional[KernelView] = None,
) -> MemoryTraffic:
    """Bytes of global/local traffic one thread generates."""
    if view is None:
        view = KernelView(kernel)
    acc = [0.0, 0.0, 0.0, 0.0]
    _traffic_range(view, 0, view.size, 1.0, acc)
    return MemoryTraffic(
        load_bytes=acc[0],
        store_bytes=acc[1],
        uncoalesced_load_bytes=acc[2],
        uncoalesced_store_bytes=acc[3],
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


def profile_kernel(
    kernel: Kernel, view: Optional[KernelView] = None,
) -> ExecutionProfile:
    """Run the full static analysis on one kernel: one view serves
    ``Instr``, the mix, ``Regions`` and the traffic."""
    if view is None:
        view = KernelView(kernel)
    instructions, mix = count_instructions(kernel, view=view)
    return ExecutionProfile(
        instructions=instructions,
        regions=count_regions(kernel, view=view),
        mix=mix,
        traffic=memory_traffic(kernel, view=view),
    )
