"""Warp-level execution traces, loop-compressed.

The timing simulator does not interpret instructions; it replays a
*trace* — the per-warp sequence of issue-port work, memory requests,
scoreboard waits and barriers that one warp of the kernel produces.
Because kernels are SPMD and divergence is modeled statically, every
warp replays the same trace; only the timing state differs.

Load/use separation matters: "global load operations execute
immediately and do not block execution until a use of the destination
operand is encountered" (Section 4).  The trace records the load at
its issue point and a USE event at the first read of its destination,
which is precisely what makes prefetching profitable in the simulator.

Compression
-----------

A trace is stored as a small set of *segments* (tuples of events) plus
a *program* of ``(segment_index, repeat)`` records.  Loops do not
materialize ``trip_count`` copies of their body: the builder walks the
program points of the kernel's :class:`~repro.ptx.view.KernelView`,
emits a loop's first iteration literally (its
scoreboard state differs — prefetched loads from the preamble resolve
here), then captures the second and third iterations and proves they
are identical.  Steady-state iterations collapse into one record, so
trace size is O(static instructions) instead of O(dynamic
instructions) while decompressing to the *byte-identical* event stream
the uncompressed builder produced.

The scoreboard tags in LOAD/SFU/USE events are *slots* — stable ids
per destination register (numbered as their loads and SFU ops first
issue, keyed by the view's register ids) — rather than one-shot serial
tags, so a repeated segment replays correctly: a later load to the
same register simply overwrites the slot's completion time, exactly
matching the old tag semantics where a USE always referenced the
latest tag.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instruction
from repro.ir.kernel import Kernel
from repro.ptx.analysis import LOOP_OVERHEAD_PER_TRIP, LOOP_OVERHEAD_SETUP
from repro.ptx.isa import InstrClass
from repro.ptx.view import INSTR, LOOP, KernelView
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig

# Event kinds (tuple-encoded for speed: (kind, a, b)).  Port-consuming
# kinds are numbered below the settle-only kinds so the replay loop
# splits on a single compare (kind < 4 issues; kind >= 4 settles).
COMPUTE = 0   # a = issue slots (ALU instructions)
LOAD = 1      # a = scoreboard slot, b = (DRAM bytes for the warp, latency)
STORE = 2     # a = 0, b = DRAM bytes for the warp
SFU = 3       # a = scoreboard slot; result is scoreboarded like a load
USE = 4       # a = scoreboard slot
BARRIER = 5

Event = Tuple

#: Upper bound on materializing a repeated loop body into one flat
#: segment.  Bodies below the cap (the common case — even a fully
#: unrolled matmul tile is a few hundred events) become a single
#: segment replayed by index; larger bodies fall back to repeating
#: their record sequence, which still shares the underlying segments.
MAX_MATERIALIZED_SEGMENT = 65_536


@dataclasses.dataclass(frozen=True)
class WarpTrace:
    """The replayable event stream of one warp, loop-compressed.

    ``segments`` holds each distinct run of events exactly once;
    ``program`` replays them in order as ``(segment_index, repeat)``
    records.  ``len(trace)`` is the dynamic event count; ``events``
    materializes the flat stream (tests, the reference replayer).
    """

    segments: Tuple[Tuple[Event, ...], ...]
    program: Tuple[Tuple[int, int], ...]
    issue_slots: int          # total port-consuming instructions
    dram_bytes: float         # per-warp DRAM traffic (loads + stores)

    @classmethod
    def from_events(
        cls,
        events: List[Event],
        issue_slots: int = 0,
        dram_bytes: float = 0.0,
    ) -> "WarpTrace":
        """Wrap a flat event list as a single-segment trace."""
        events = tuple(events)
        if not events:
            return cls(segments=(), program=(), issue_slots=issue_slots,
                       dram_bytes=dram_bytes)
        return cls(segments=(events,), program=((0, 1),),
                   issue_slots=issue_slots, dram_bytes=dram_bytes)

    @property
    def events(self) -> List[Event]:
        """The decompressed event stream (O(dynamic) — not the hot path)."""
        out: List[Event] = []
        for index, repeat in self.program:
            out.extend(self.segments[index] * repeat)
        return out

    def __len__(self) -> int:
        return sum(len(self.segments[i]) * r for i, r in self.program)


def _warp_bytes(instr: Instruction, threads: int, config: SimConfig) -> float:
    bytes_per_thread = instr.mem.dtype.size_bytes
    total = bytes_per_thread * threads
    if not instr.coalesced:
        total *= config.uncoalesced_traffic_factor
    return total


# What an instruction point does to the trace (its ``_actions`` entry).
_ALU = 0        # arg: issue slots added to the compute run
_DRAM_LOAD = 1  # arg: warp bytes
_TEX_LOAD = 2
_STORE = 3      # arg: warp bytes
_BARRIER = 4
_SFU = 5

_ROLES = {
    InstrClass.GLOBAL_LOAD: _DRAM_LOAD,
    InstrClass.LOCAL_LOAD: _DRAM_LOAD,
    InstrClass.TEXTURE_LOAD: _TEX_LOAD,
    InstrClass.GLOBAL_STORE: _STORE,
    InstrClass.LOCAL_STORE: _STORE,
    InstrClass.BARRIER: _BARRIER,
    InstrClass.SFU: _SFU,
}


@dataclasses.dataclass
class _IterationDelta:
    """Accounting advance of one captured loop iteration."""

    records: List[Tuple[int, int]]
    issue_slots: int
    dram_bytes: float
    compute_run: int          # compute_run *after* the iteration


class _TraceBuilder:
    """Emits a compressed trace from a kernel's view.

    Event rules per instruction class, scoreboard USE points, and the
    loop-control overhead of ``LOOP_OVERHEAD_SETUP`` /
    ``LOOP_OVERHEAD_PER_TRIP`` synthetic ops are those of the flat
    builder; the only difference is that steady-state loop iterations
    are stored once and replayed by repeat count.  Each instruction
    point's action is resolved once per build (``_actions``), so the
    repeated walks of a loop body (first, second and proving third
    iteration) only read it.
    """

    def __init__(self, kernel: Kernel, view: KernelView, config: SimConfig) -> None:
        self.config = config
        self.view = view
        threads = min(kernel.threads_per_block, config.device.warp_size)
        shared_ways = config.shared_bank_conflict_ways
        constant_ways = config.constant_conflict_ways
        actions: List[Tuple[int, object]] = []
        for point, cls in enumerate(view.classes):
            role = _ROLES.get(cls)
            if role is None:
                if cls is InstrClass.CONST_LOAD:
                    # Constant-cache hits cost like ALU ops unless
                    # conflicted.
                    actions.append((_ALU, constant_ways))
                elif cls is InstrClass.SHARED_LOAD or cls is InstrClass.SHARED_STORE:
                    # Bank-conflict-free by default (Table 1);
                    # serialized accesses replay the instruction per
                    # conflicting bank.
                    actions.append((_ALU, shared_ways))
                else:
                    # Remaining ALU work (and non-instruction points).
                    actions.append((_ALU, 1))
            elif role == _DRAM_LOAD or role == _STORE:
                actions.append(
                    (role, _warp_bytes(view.stmts[point], threads, config))
                )
            else:
                actions.append((role, 0))
        self._actions = actions
        self.segments: List[Tuple[Event, ...]] = []
        self._segment_ids: Dict[Tuple[Event, ...], int] = {}
        #: stack of record streams; captures push a scratch stream
        self._records: List[List[Tuple[int, int]]] = [[]]
        self._events: List[Event] = []      # open (unsealed) event run
        self.pending: Dict[int, int] = {}   # register id -> slot
        self._slots: Dict[int, int] = {}
        self.compute_run = 0
        self.issue_slots = 0
        self.dram_bytes = 0.0

    # ------------------------------------------------------------------
    # Event plumbing.

    def _seal(self) -> None:
        """Close the open event run into a program record.

        Does *not* flush ``compute_run``: a pending compute run merges
        across loop boundaries into whichever segment finally flushes
        it, exactly as the flat builder batched it.
        """
        if not self._events:
            return
        self._records[-1].append((self._intern(tuple(self._events)), 1))
        self._events = []

    def _intern(self, events: Tuple[Event, ...]) -> int:
        index = self._segment_ids.get(events)
        if index is None:
            index = len(self.segments)
            self.segments.append(events)
            self._segment_ids[events] = index
        return index

    def _control(self, count: int) -> None:
        """Synthetic loop/branch overhead ops (PTX add/setp/bra)."""
        self.compute_run += count
        self.issue_slots += count

    # ------------------------------------------------------------------
    # The walk over program points.

    def _range(self, start: int, stop: int) -> None:
        """Emit the points in ``[start, stop)``."""
        view = self.view
        kinds = view.kinds
        reads = view.reads
        dests = view.dests
        actions = self._actions
        pending = self.pending
        slots = self._slots
        events = self._events
        latency = self.config.global_latency_cycles
        texture_latency = self.config.texture_latency_cycles
        point = start
        while point < stop:
            if kinds[point] != INSTR:
                # A loop capture seals the open run: pick up the new one.
                point = self._statement(point)
                events = self._events
                continue
            if pending:
                for rid in reads[point]:
                    if rid in pending:
                        if self.compute_run:
                            events.append((COMPUTE, self.compute_run, 0))
                            self.compute_run = 0
                        events.append((USE, pending.pop(rid), 0))
            self.issue_slots += 1
            role, arg = actions[point]
            if role == _ALU:
                self.compute_run += arg
            else:
                if self.compute_run:
                    events.append((COMPUTE, self.compute_run, 0))
                    self.compute_run = 0
                if role == _DRAM_LOAD or role == _TEX_LOAD:
                    if role == _TEX_LOAD:
                        payload = (0.0, texture_latency)
                    else:
                        payload = (arg, latency)
                        self.dram_bytes += arg
                    dest = dests[point]
                    slot = slots.get(dest)
                    if slot is None:
                        slot = slots[dest] = len(slots)
                    pending[dest] = slot
                    events.append((LOAD, slot, payload))
                elif role == _STORE:
                    self.dram_bytes += arg
                    events.append((STORE, 0, arg))
                elif role == _BARRIER:
                    events.append((BARRIER, 0, 0))
                else:
                    dest = dests[point]
                    slot = slots.get(dest)
                    if slot is None:
                        slot = slots[dest] = len(slots)
                    pending[dest] = slot
                    events.append((SFU, slot, 0))
            point += 1

    def _statement(self, point: int) -> int:
        """Emit the loop or ``If`` headed at ``point``; returns the
        point after it."""
        view = self.view
        mid, end = view.spans[point]
        stmt = view.stmts[point]
        if view.kinds[point] == LOOP:
            self._loop(point + 1, mid, stmt.annotated_trips)
        else:
            self._control(1)          # guarding branch
            if stmt.taken_fraction >= 1.0:
                self._range(point + 1, mid)
            elif stmt.taken_fraction <= 0.0:
                self._range(mid, end)
            else:
                # Divergent warps serialize both sides.
                self._range(point + 1, end)
        return end

    def _iteration(self, start: int, stop: int) -> None:
        self._range(start, stop)
        self._control(LOOP_OVERHEAD_PER_TRIP)   # add + setp + bra

    # ------------------------------------------------------------------
    # Loop compression.

    def _capture_iteration(self, start: int, stop: int) -> _IterationDelta:
        """Run one iteration with its records diverted to a scratch
        stream, returning the emitted records and accounting deltas."""
        self._seal()
        self._records.append([])
        issue_before = self.issue_slots
        dram_before = self.dram_bytes
        self._iteration(start, stop)
        self._seal()
        records = self._records.pop()
        return _IterationDelta(
            records=records,
            issue_slots=self.issue_slots - issue_before,
            dram_bytes=self.dram_bytes - dram_before,
            compute_run=self.compute_run,
        )

    def _append_records(self, records: List[Tuple[int, int]]) -> None:
        self._records[-1].extend(records)

    def _repeat_records(self, records: List[Tuple[int, int]], count: int) -> None:
        """Append ``count`` replays of a record sequence, as one
        materialized segment when small enough."""
        if not records or count <= 0:
            return
        if len(records) == 1:
            index, repeat = records[0]
            self._records[-1].append((index, repeat * count))
            return
        size = sum(len(self.segments[i]) * r for i, r in records)
        if size <= MAX_MATERIALIZED_SEGMENT:
            flat: List[Event] = []
            for index, repeat in records:
                flat.extend(self.segments[index] * repeat)
            self._records[-1].append((self._intern(tuple(flat)), count))
        else:
            for _ in range(count):
                self._records[-1].extend(records)

    def _loop(self, start: int, stop: int, trips: int) -> None:
        """Emit a loop whose body is the points in ``[start, stop)``."""
        self._control(LOOP_OVERHEAD_SETUP)       # init mov
        if trips == 0:
            return
        # First iteration inline: its scoreboard interactions (preamble
        # loads resolving, first-touch USE points) are unique.
        self._iteration(start, stop)
        if trips == 1:
            return
        # Second iteration: the candidate steady state.
        second = self._capture_iteration(start, stop)
        pending_after_second = dict(self.pending)
        self._append_records(second.records)
        if trips == 2:
            return
        # Third iteration proves the steady state: the scoreboard
        # reaches its fixed point after one body execution, so if the
        # third iteration replays the second exactly, so do all later
        # ones (the state transition is deterministic and idempotent).
        third = self._capture_iteration(start, stop)
        if (third.records == second.records
                and self.pending == pending_after_second):
            self._repeat_records(third.records, trips - 2)
            remaining = trips - 3
            self.issue_slots += remaining * third.issue_slots
            self.dram_bytes += remaining * third.dram_bytes
            self.compute_run += remaining * (third.compute_run - second.compute_run)
        else:
            # No steady state (never observed in practice — kept as an
            # exactness safety net): expand the remaining trips.
            self._append_records(third.records)
            for _ in range(trips - 3):
                self._iteration(start, stop)

    # ------------------------------------------------------------------

    def finish(self) -> WarpTrace:
        if self.compute_run:
            self._events.append((COMPUTE, self.compute_run, 0))
            self.compute_run = 0
        self._seal()
        assert len(self._records) == 1, "unbalanced capture stack"
        return WarpTrace(
            segments=tuple(self.segments),
            program=tuple(self._records[0]),
            issue_slots=self.issue_slots,
            dram_bytes=self.dram_bytes,
        )


def build_trace(
    kernel: Kernel,
    config: SimConfig = DEFAULT_SIM_CONFIG,
    view: Optional[KernelView] = None,
) -> WarpTrace:
    """Compile a kernel into its (loop-compressed) warp trace.

    The final (possibly partial) warp is modeled like a full one: the
    SIMD pipeline charges a full warp's issue slots regardless of how
    many lanes are active.  Build time and trace memory are O(static
    instructions): steady-state loop iterations are stored once and
    replayed by repeat count (see :class:`WarpTrace`).  The events come
    from the kernel's :class:`~repro.ptx.view.KernelView` — ``view``
    when the caller has it, else a fresh one.
    """
    if view is None:
        view = KernelView(kernel)
    builder = _TraceBuilder(kernel, view, config)
    builder._range(0, view.size)
    return builder.finish()
