"""Discrete-event timing model of one streaming multiprocessor.

Models the mechanisms Section 2.1 names as the performance
determinants: a single in-order issue port shared by all resident
warps (one warp instruction per four cycles), zero-overhead warp
switching (any ready warp may issue; the SM stalls only when no warp
has ready operands), scoreboarded global loads that block at first
use, block-wide barriers, SFU throughput, and queueing on the DRAM
interface.

The replay loop is the hot path of every configuration sweep, so it is
written for speed without changing the model (the straightforward
heap-loop form lives in ``tests/sim/oracles.py``, and a differential
test pins the equivalence):

* traces are *compiled* before replay (:func:`compile_trace`): the
  loop-compressed program is linearized into one flat event list whose
  entries carry every per-event constant precomputed — a COMPUTE run's
  port duration, a memory event's burst-rate and sustained-rate
  service times (the two divisions of the DRAM token bucket), the
  scoreboard slot and latency of a load.  Precomputing ``a*b`` or
  ``a/b`` and adding the result later performs the identical IEEE-754
  operations in the identical order, so compiled replay is
  bit-identical to walking the raw segments;
* a warp's replay position is a single integer riding inside its
  scheduler entry, so the steady state runs on small-tuple unpacking
  with no segment/repeat bookkeeping at all;
* the scheduler is a FIFO plus a small heap: a warp re-queued after
  issuing carries a key no smaller than any earlier one (the port-free
  time never decreases), so those entries form a monotone queue, and
  only barrier releases and block refills need true heap inserts.
  Popping the smaller head of the two gives exactly the global
  ``(ready_at, arrival)`` order of the single-heap loop — ties between
  warps ready at the same cycle always go to the warp queued first;
* the DRAM token bucket is inlined (same arithmetic, same order, as
  the oracle's ``MemorySystem`` in ``tests/sim/memory_system.py``);
* a warp that is strictly the earliest runnable keeps the issue port
  with no queue round-trip at all;
* once every resident warp is inside one repeated loop record and the
  whole SM state recurs shifted by a fixed number of cycles, the
  replay jumps over the remaining whole periods instead of walking
  them (:class:`_Recurrence`).  Every constant is a multiple of 1/16,
  so the shifted sums are exact and the jump is bit-identical; a
  trace or config that breaks that premise replays event by event.

Replay is exact: every sampled block runs to completion through the
event loop or a bit-identical jump, and a block that cannot finish
raises :class:`SimulationDeadlock`.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import current_tracer
from repro.sim.config import SimConfig
from repro.sim.trace import WarpTrace

# Compiled event opcodes (see compile_trace).  Distinct from the raw
# trace kinds of repro.sim.trace: zero-byte stores compile to COMPUTE
# and zero-byte (texture) loads get their own opcode, so the replay
# loop never re-tests byte counts.
_C_COMPUTE = 0   # (0, duration)
_C_LOAD = 1      # (1, slot, bytes, burst_time, sustained_time, latency)
_C_STORE = 2     # (2, bytes, burst_time, sustained_time)
_C_SFU = 3       # (3, slot)
_C_USE = 4       # (4, slot)
_C_BARRIER = 5   # (5,)
_C_TEXLOAD = 6   # (6, slot, latency)


#: Every time, byte count and busy sum of a replay is a multiple of
#: 1/16 when every constant is; a jump is taken only while each value
#: it produces, in sixteenths, is an integer below 2**48 — far inside
#: the 53-bit mantissa, so every sum the replay forms stays exact.
_GRAIN = 16.0
_EXACT_LIMIT = 2.0 ** 48
#: States the recurrence memo holds; a trace that has not recurred by
#: then stops being checked until the sentinel enters another loop
#: range or a block finishes.
_MEMO_LIMIT = 512


class SimulationDeadlock(RuntimeError):
    """The event loop wedged; indicates a malformed trace."""


def _dyadic(values) -> bool:
    """Whether every value is a multiple of 1/16 below the exact bound."""
    for value in values:
        scaled = value * _GRAIN
        if not (scaled < _EXACT_LIMIT and scaled.is_integer()):
            return False
    return True


class CompiledTrace:
    """A warp trace linearized for replay, constants precomputed.

    ``events`` is the flat per-warp event list (one entry per dynamic
    event — segment repeats share the same tuple objects, so memory
    stays O(static) plus one pointer per dynamic event).

    ``loops`` lists the flat ``(start, end, period_len)`` range of every
    program record repeated more than twice — the ranges a replay may
    jump through (see :class:`_Recurrence`).  It is empty when some
    constant of the trace or config is not a multiple of 1/16, since
    the jump's exactness argument needs every time to be one.
    """

    __slots__ = ("events", "n", "loops")

    def __init__(self, events: List[Tuple],
                 loops: Tuple[Tuple[int, int, int], ...]) -> None:
        self.events = events
        self.n = len(events)
        self.loops = loops


def compile_trace(trace: WarpTrace, config: SimConfig) -> CompiledTrace:
    """Linearize a loop-compressed trace into flat precomputed events.

    Every event becomes a tuple whose fields are the exact operands
    the replay loop needs — port durations, the DRAM bucket's two
    service-time divisions, scoreboard slots and latencies — computed
    once here instead of once per replayed instance.  The divisions
    and multiplications performed here are the same IEEE-754
    operations the uncompiled loop performed inline, so replaying the
    compiled form is bit-identical.
    """
    issue_cost = config.issue_cycles_per_instruction
    share = config.bandwidth_bytes_per_cycle_per_sm
    burst_rate = share * config.bandwidth_burst_factor

    compiled_segments: List[List[Tuple]] = []
    for segment in trace.segments:
        out: List[Tuple] = []
        for event in segment:
            kind = event[0]
            if kind == 0:      # COMPUTE
                out.append((_C_COMPUTE, event[1] * issue_cost))
            elif kind == 1:    # LOAD
                slot = event[1]
                bytes_, latency = event[2]
                if bytes_ <= 0.0:
                    out.append((_C_TEXLOAD, slot, latency))
                else:
                    out.append((_C_LOAD, slot, bytes_, bytes_ / burst_rate,
                                bytes_ / share, latency))
            elif kind == 2:    # STORE
                bytes_ = event[2]
                if bytes_ > 0.0:
                    out.append((_C_STORE, bytes_, bytes_ / burst_rate,
                                bytes_ / share))
                else:
                    # A zero-byte store holds the port for one issue
                    # slot and touches nothing else — a COMPUTE.
                    out.append((_C_COMPUTE, issue_cost))
            elif kind == 3:    # SFU
                out.append((_C_SFU, event[1]))
            elif kind == 4:    # USE
                out.append((_C_USE, event[1]))
            elif kind == 5:    # BARRIER
                out.append((_C_BARRIER,))
            else:
                raise SimulationDeadlock(f"unexpected event kind {kind}")
        compiled_segments.append(out)

    events: List[Tuple] = []
    loops: List[Tuple[int, int, int]] = []
    for index, repeat in trace.program:
        segment = compiled_segments[index]
        if repeat == 1:
            events.extend(segment)
        else:
            start = len(events)
            events.extend(segment * repeat)
            if repeat > 2 and segment:
                loops.append((start, len(events), len(segment)))
    constants = [issue_cost, config.sfu_cycles_per_instruction,
                 config.sfu_result_latency,
                 config.burst_window_bytes / share]
    for segment in compiled_segments:
        for event in segment:
            constants.extend(event[1:])
    if not _dyadic(constants):
        loops = []
    return CompiledTrace(events, tuple(loops))


class _Warp:
    """Out-of-band warp state; the replay position rides in the
    scheduler entry while the warp is queued, and in loop locals while
    it holds the port.  The attribute copies are only maintained at
    barriers, where the releasing warp re-queues its siblings."""

    __slots__ = ("block", "pos", "ready_at", "pending")

    def __init__(self, block: "_Block") -> None:
        self.block = block
        self.pos = 0         # flat event index
        self.ready_at = 0.0
        self.pending: Dict[int, float] = {}


class _Block:
    __slots__ = ("warps", "arrived", "barrier_time", "done_count", "finish_time")

    def __init__(self) -> None:
        self.warps: List[_Warp] = []
        self.arrived = 0
        self.barrier_time = 0.0
        self.done_count = 0
        self.finish_time = 0.0


class _Recurrence:
    """Jumps the replay over whole periods of a recurring SM state.

    Checked each time the scheduler pops the sentinel warp, and only
    while every resident warp is queued (none at a barrier, none done)
    inside one loop range of :attr:`CompiledTrace.loops`; the memo holds
    the states of the sentinel's current range.  The state is keyed
    relative to ``T = port_free``: the queue in pop order as
    ``(warp, ready - T, pos - sentinel_pos)``, the sentinel's offset
    within the loop body, each warp's scoreboard entries later than its
    ready time, and ``sfu_free`` / ``mem_burst_free`` /
    ``mem_sustained_end`` clamped to ``max(x, T) - T`` (every future
    issue starts at or after ``T``, so a value below it acts as ``T``).
    Two equal keys mean the replay from the later state is the earlier
    one's shifted by ``D`` cycles and ``dpos`` events, as long as every
    warp stays inside the range and the arithmetic stays exact; the
    state then advances by ``m`` whole periods at once.
    """

    __slots__ = ("loops", "starts", "warps", "memo", "range", "open",
                 "skipped")

    def __init__(self, loops: Tuple[Tuple[int, int, int], ...],
                 warps: int) -> None:
        self.loops = loops
        self.starts = [loop[0] for loop in loops]
        self.warps = warps
        self.memo: Dict[tuple, tuple] = {}
        self.range = -1      # the loop range the memo's states are in
        self.open = True     # False once the memo filled up or a guard failed
        self.skipped = 0     # modelled events the jumps covered

    def reset(self, index: int = -1) -> None:
        """Forget every state: a block finished, or the sentinel moved
        on to loop range ``index``.  States before either cannot recur
        after it."""
        self.memo.clear()
        self.range = index
        self.open = True

    def jump(self, warp: _Warp, ready: float, pos: int, fifo: deque,
             heap: List[tuple], port_free: float, sfu_free: float,
             burst_free: float, sustained_end: float, issue_busy: float,
             mem_busy: float, mem_bytes: float) -> Optional[tuple]:
        """Advance the state past every whole period left in the range.

        ``warp`` is the sentinel, just popped at ``(ready, pos)``.
        Returns the advanced ``(ready, pos, port_free, sfu_free,
        burst_free, sustained_end, issue_busy, mem_busy, mem_bytes)``
        after shifting the queues and scoreboards in place, or ``None``
        to replay on.
        """
        if len(fifo) + len(heap) + 1 != self.warps:
            return None
        index = bisect_right(self.starts, pos) - 1
        if index < 0:
            return None
        start, end, period = self.loops[index]
        if pos >= end:
            return None
        if index != self.range:
            self.reset(index)
        if not self.open:
            return None
        queued = [*fifo, *heap]
        positions = [entry[3] for entry in queued]
        last = max(positions, default=pos)
        if min(positions, default=pos) < start or last >= end:
            return None
        if pos > last:
            last = pos
        # Pop order is (ready, arrival) across both queues.
        queued.sort()
        queued.insert(0, (ready, 0, warp, pos))
        base = port_free
        key = [(pos - start) % period,
               sfu_free - base if sfu_free > base else 0.0,
               burst_free - base if burst_free > base else 0.0,
               sustained_end - base if sustained_end > base else 0.0]
        for r, _, w, at in queued:
            key.append((w, r - base, at - pos, tuple(sorted(
                [(slot, t - base) for slot, t in w.pending.items()
                 if t > r]))))
        key = tuple(key)
        memo = self.memo
        then = memo.get(key)
        if then is None:
            if len(memo) < _MEMO_LIMIT:
                memo[key] = (base, pos, issue_busy, mem_busy, mem_bytes)
            else:
                self.open = False
            return None
        then_base, then_pos, then_issue, then_busy, then_bytes = then
        # Stop where the next period would read past the range.
        periods = (end - last) // (pos - then_pos)
        if periods < 1:
            return None
        shift = (base - then_base) * periods
        advance = (pos - then_pos) * periods
        scalars = (ready + shift, port_free + shift, sfu_free + shift,
                   burst_free + shift, sustained_end + shift,
                   issue_busy + (issue_busy - then_issue) * periods,
                   mem_busy + (mem_busy - then_busy) * periods,
                   mem_bytes + (mem_bytes - then_bytes) * periods)
        moved_fifo = [(r + shift, seq, w, at + advance)
                      for r, seq, w, at in fifo]
        moved_heap = [(r + shift, seq, w, at + advance)
                      for r, seq, w, at in heap]
        moved_pending = [(w, {slot: t + shift
                              for slot, t in w.pending.items()})
                         for _, _, w, _ in queued]
        if not (_dyadic(scalars)
                and _dyadic([entry[0] for entry in moved_fifo])
                and _dyadic([entry[0] for entry in moved_heap])
                and all(_dyadic(p.values()) for _, p in moved_pending)):
            self.open = False
            return None
        fifo.clear()
        fifo.extend(moved_fifo)
        # Equal shifts keep the heap ordered.
        heap[:] = moved_heap
        for w, pending in moved_pending:
            w.pending = pending
        memo.clear()
        self.skipped += advance * self.warps
        return (scalars[0], pos + advance) + scalars[1:]


@dataclasses.dataclass(frozen=True)
class SMResult:
    """Outcome of simulating one SM over a fixed number of blocks."""

    cycles: float
    blocks_completed: int
    issue_busy_cycles: float
    dram_bytes: float
    dram_busy_cycles: float
    #: Telemetry: full refill generations observed by the event loop
    #: and the integer block counts behind them.  ``blocks_replayed``
    #: went through the event loop; ``blocks_resident`` is the
    #: residency the waves ran at.  All integers, so they merge exactly
    #: across configurations and pool workers.
    waves_simulated: int = 0
    blocks_replayed: int = 0
    blocks_resident: int = 0
    events_replayed: int = 0
    #: the part of ``events_replayed`` a recurrence jump covered
    #: instead of the event loop (see :class:`_Recurrence`)
    events_skipped: int = 0

    @property
    def cycles_per_block(self) -> float:
        return self.cycles / self.blocks_completed

    @property
    def issue_utilization(self) -> float:
        return self.issue_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def bandwidth_utilization(self) -> float:
        return self.dram_busy_cycles / self.cycles if self.cycles else 0.0


def simulate_sm(
    trace: WarpTrace,
    warps_per_block: int,
    blocks_resident: int,
    total_blocks: int,
    config: SimConfig,
) -> SMResult:
    """Replay ``total_blocks`` copies of a block's warps on one SM.

    ``blocks_resident`` blocks run concurrently (B_SM); a finished
    block's slot is refilled immediately, as the runtime does.
    """
    if total_blocks < blocks_resident:
        blocks_resident = total_blocks
    compiled = compile_trace(trace, config)

    # Tracing costs one flag check when disabled; the replay loop
    # itself is never instrumented (see repro.obs.trace).
    tracer = current_tracer()
    span_started = tracer.now() if tracer is not None else 0.0

    (cycles, finished_blocks, issue_busy, mem_total_bytes, mem_busy,
     events_skipped) = _replay(
        compiled, warps_per_block, blocks_resident, total_blocks, config)

    events_replayed = compiled.n * warps_per_block * finished_blocks
    waves_simulated = (finished_blocks // blocks_resident
                       if blocks_resident else 0)
    if tracer is not None:
        tracer.complete_event(
            "sm.replay", span_started, cat="sim",
            args={
                "blocks": total_blocks,
                "waves_simulated": waves_simulated,
                "blocks_replayed": finished_blocks,
                "events_replayed": events_replayed,
                "events_skipped": events_skipped,
            },
        )
    return SMResult(
        cycles=cycles,
        blocks_completed=finished_blocks,
        issue_busy_cycles=issue_busy,
        dram_bytes=mem_total_bytes,
        dram_busy_cycles=mem_busy,
        waves_simulated=waves_simulated,
        blocks_replayed=finished_blocks,
        blocks_resident=blocks_resident,
        events_replayed=events_replayed,
        events_skipped=events_skipped,
    )


def _replay(
    compiled: CompiledTrace,
    warps_per_block: int,
    blocks_resident: int,
    total_blocks: int,
    config: SimConfig,
) -> Tuple[float, int, float, float, float, int]:
    """The flat-event interpreter.

    Returns ``(cycles, blocks_replayed, issue_busy, dram_bytes,
    dram_busy, events_skipped)``.
    """
    events = compiled.events
    n = compiled.n

    issue_cost = config.issue_cycles_per_instruction
    sfu_cost = config.sfu_cycles_per_instruction
    sfu_latency = config.sfu_result_latency

    # DRAM token bucket, inlined (MemorySystem.request verbatim).
    share = config.bandwidth_bytes_per_cycle_per_sm
    window_cycles = config.burst_window_bytes / share
    mem_burst_free = 0.0
    mem_sustained_end = 0.0
    mem_total_bytes = 0.0
    mem_busy = 0.0

    # Scheduler entries: (ready_at, arrival_seq, warp, pos).  ``fifo``
    # receives only monotone pushes (initial seeding and post-issue
    # re-queues at the nondecreasing port-free time); barrier releases
    # and refills go through ``heap``.
    fifo: deque = deque()
    heap: List[tuple] = []
    sequence = 0
    blocks = [_Block() for _ in range(blocks_resident)]
    for block in blocks:
        for _ in range(warps_per_block):
            w = _Warp(block)
            block.warps.append(w)
            fifo.append((0.0, sequence, w, 0))
            sequence += 1

    # Recurrence jumps are checked at pops of one sentinel warp.
    recurrence = _Recurrence(compiled.loops,
                             blocks_resident * warps_per_block)
    sentinel = blocks[0].warps[0] if compiled.loops else None

    port_free = 0.0
    sfu_free = 0.0
    issue_busy = 0.0
    finished_blocks = 0
    blocks_started = blocks_resident
    finish_time = 0.0

    # Current-warp state in locals; ``warp is None`` means "pop next".
    warp: Optional[_Warp] = None
    pos = 0
    ready = 0.0

    while True:
        if warp is None:
            if fifo:
                if heap and heap[0] < fifo[0]:
                    entry = heappop(heap)
                else:
                    entry = fifo.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                break
            ready, _, warp, pos = entry
            if warp is sentinel:
                jumped = recurrence.jump(
                    warp, ready, pos, fifo, heap, port_free, sfu_free,
                    mem_burst_free, mem_sustained_end, issue_busy,
                    mem_busy, mem_total_bytes)
                if jumped is not None:
                    (ready, pos, port_free, sfu_free, mem_burst_free,
                     mem_sustained_end, issue_busy, mem_busy,
                     mem_total_bytes) = jumped

        if pos == n:
            # End of trace: the warp (and possibly its block) is done.
            block = warp.block
            block.done_count += 1
            if ready > block.finish_time:
                block.finish_time = ready
            if block.done_count == warps_per_block:
                finished_blocks += 1
                recurrence.reset()
                if block.finish_time > finish_time:
                    finish_time = block.finish_time
                if blocks_started < total_blocks:
                    blocks_started += 1
                    restart = block.finish_time
                    block.done_count = 0
                    block.arrived = 0
                    block.barrier_time = 0.0
                    block.finish_time = 0.0
                    for w in block.warps:
                        w.ready_at = restart
                        w.pending = {}
                        heappush(heap, (restart, sequence, w, 0))
                        sequence += 1
            warp = None
            continue

        event = events[pos]
        kind = event[0]

        if kind == _C_COMPUTE:
            duration = event[1]
            start = port_free if port_free > ready else ready
        elif kind == _C_USE:
            t = warp.pending.pop(event[1], 0.0)
            if t > ready:
                ready = t
            pos += 1
            continue
        elif kind == _C_LOAD:
            duration = issue_cost
            start = port_free if port_free > ready else ready
            now = start + duration
            burst_start = mem_burst_free if mem_burst_free > now else now
            burst_end = burst_start + event[3]
            mem_sustained_end = (
                (mem_sustained_end if mem_sustained_end > now else now)
                + event[4]
            )
            throttled = mem_sustained_end - window_cycles
            service_end = burst_end if burst_end > throttled else throttled
            mem_total_bytes += event[2]
            mem_busy += service_end - burst_start
            mem_burst_free = service_end
            warp.pending[event[1]] = service_end + event[5]
        elif kind == _C_STORE:
            duration = issue_cost
            start = port_free if port_free > ready else ready
            now = start + duration
            burst_start = mem_burst_free if mem_burst_free > now else now
            burst_end = burst_start + event[2]
            mem_sustained_end = (
                (mem_sustained_end if mem_sustained_end > now else now)
                + event[3]
            )
            throttled = mem_sustained_end - window_cycles
            service_end = burst_end if burst_end > throttled else throttled
            mem_total_bytes += event[1]
            mem_busy += service_end - burst_start
            mem_burst_free = service_end
        elif kind == _C_SFU:
            # Issue occupies the port briefly; the SFU pipeline is a
            # separate throughput-limited resource, and the result is
            # scoreboarded until its latency elapses.
            duration = issue_cost
            start = port_free if port_free > ready else ready
            t = start + duration
            sfu_free = (sfu_free if sfu_free > t else t) + sfu_cost
            warp.pending[event[1]] = sfu_free + sfu_latency
        elif kind == _C_BARRIER:
            pos += 1
            warp.pos = pos
            warp.ready_at = ready
            block = warp.block
            block.arrived += 1
            if ready > block.barrier_time:
                block.barrier_time = ready
            if block.arrived == warps_per_block:
                release = block.barrier_time
                block.arrived = 0
                block.barrier_time = 0.0
                for w in block.warps:
                    if release > w.ready_at:
                        w.ready_at = release
                    heappush(heap, (w.ready_at, sequence, w, w.pos))
                    sequence += 1
            warp = None
            continue
        else:                    # _C_TEXLOAD
            duration = issue_cost
            start = port_free if port_free > ready else ready
            warp.pending[event[1]] = start + duration + event[2]

        # Port-consuming epilogue, shared by every issuing opcode.
        ready = start + duration
        port_free = ready
        issue_busy += duration
        pos += 1
        # Keep the port only when strictly earliest; a tie goes to the
        # warp queued first, exactly as the scheduler orders it.
        if fifo:
            head = fifo[0][0]
            if heap:
                t = heap[0][0]
                if t < head:
                    head = t
        elif heap:
            head = heap[0][0]
        else:
            continue
        if head <= ready:
            fifo.append((ready, sequence, warp, pos))
            sequence += 1
            warp = None
        continue

    if finished_blocks < total_blocks:
        raise SimulationDeadlock(
            f"completed {finished_blocks}/{total_blocks} blocks"
        )
    # A block is not done until its outstanding stores drain; the
    # pipe term is what makes store-bound kernels bandwidth-bound.
    cycles = finish_time
    if port_free > cycles:
        cycles = port_free
    if mem_burst_free > cycles:
        cycles = mem_burst_free
    return (cycles, finished_blocks, issue_busy, mem_total_bytes, mem_busy,
            recurrence.skipped)
