"""Test-only oracles for the simulator: the straightforward implementations.

Two pre-optimization implementations, kept simple on purpose:

* :func:`build_trace_reference` — flat trace building over the fully
  expanded dynamic instruction stream, no loop compression;
* :func:`simulate_sm_reference` — the plain event loop: one global
  heap ordered by ``(ready_at, sequence)``, warp state held in
  objects, every dynamic event visited one at a time, the DRAM token
  bucket delegated to :class:`~repro.sim.memory_system.MemorySystem`.

It exists as the *oracle* for differential testing: the optimized
replay in :mod:`repro.sim.sm` (locals-bound hot loop, FIFO/heap
scheduler split, inlined memory arithmetic, loop-compressed segment
walking, recurrence jumps) must agree with this loop bit-for-bit on
any well-formed trace.  See
``tests/sim/test_differential.py``, the timed reference pipeline of
``benchmarks/test_bench_sim_hotpath.py``, and docs/simulator.md.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.ir.instructions import Instruction
from repro.ir.kernel import Kernel
from repro.ir.values import VirtualRegister
from repro.ptx.analysis import ControlOp, expand_dynamic
from repro.ptx.isa import InstrClass, classify
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.sim.memory_system import MemorySystem
from repro.sim.sm import SimulationDeadlock, SMResult
from repro.sim.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    SFU,
    STORE,
    USE,
    WarpTrace,
    _warp_bytes,
)


def build_trace_reference(
    kernel: Kernel, config: SimConfig = DEFAULT_SIM_CONFIG
) -> WarpTrace:
    """Flat trace building: one event stream, no loop compression.

    Walks the fully expanded dynamic instruction sequence
    (``expand_dynamic``) and appends events one at a time — O(dynamic
    instruction count) in time and memory, where
    :func:`repro.sim.trace.build_trace` is O(static code size).  Loads
    and SFU results are tagged serially; the optimized builder's
    stable per-register slots name the same producer/consumer pairs,
    so both traces replay identically.
    """
    threads = min(kernel.threads_per_block, config.device.warp_size)
    events: List[tuple] = []
    pending: dict = {}          # dest register -> tag
    compute_run = 0
    issue_slots = 0
    dram_bytes = 0.0
    next_tag = 0

    def flush_compute() -> None:
        nonlocal compute_run
        if compute_run:
            events.append((COMPUTE, compute_run, 0))
            compute_run = 0

    def note_uses(instr: Instruction) -> None:
        for value in instr.reads:
            if isinstance(value, VirtualRegister) and value in pending:
                flush_compute()
                events.append((USE, pending.pop(value), 0))

    for op in expand_dynamic(kernel):
        if isinstance(op, ControlOp):
            compute_run += 1
            issue_slots += 1
            continue
        cls = classify(op)
        note_uses(op)
        issue_slots += 1
        if cls in (InstrClass.GLOBAL_LOAD, InstrClass.LOCAL_LOAD,
                   InstrClass.TEXTURE_LOAD):
            flush_compute()
            if cls is InstrClass.TEXTURE_LOAD:
                bytes_ = 0.0
                latency = config.texture_latency_cycles
            else:
                bytes_ = _warp_bytes(op, threads, config)
                latency = config.global_latency_cycles
                dram_bytes += bytes_
            tag = next_tag
            next_tag += 1
            if op.dest is not None:
                pending[op.dest] = tag
            events.append((LOAD, tag, (bytes_, latency)))
        elif cls in (InstrClass.GLOBAL_STORE, InstrClass.LOCAL_STORE):
            flush_compute()
            bytes_ = _warp_bytes(op, threads, config)
            dram_bytes += bytes_
            events.append((STORE, 0, bytes_))
        elif cls is InstrClass.BARRIER:
            flush_compute()
            events.append((BARRIER, 0, 0))
        elif cls is InstrClass.SFU:
            flush_compute()
            tag = next_tag
            next_tag += 1
            if op.dest is not None:
                pending[op.dest] = tag
            events.append((SFU, tag, 0))
        elif cls is InstrClass.CONST_LOAD:
            # Constant-cache hits cost like ALU ops unless conflicted.
            compute_run += config.constant_conflict_ways
        elif cls in (InstrClass.SHARED_LOAD, InstrClass.SHARED_STORE):
            # Bank-conflict-free by default (Table 1); serialized
            # accesses replay the instruction per conflicting bank.
            compute_run += config.shared_bank_conflict_ways
        else:
            # Remaining ALU work: one issue slot.
            compute_run += 1
    flush_compute()
    return WarpTrace.from_events(events, issue_slots=issue_slots,
                                 dram_bytes=dram_bytes)


class _Warp:
    __slots__ = ("index", "block", "pos", "ready_at", "pending", "done",
                 "at_barrier")

    def __init__(self, index: int, block: "_Block") -> None:
        self.index = index
        self.block = block
        self.reset(0.0)

    def reset(self, start_time: float) -> None:
        self.pos = 0
        self.ready_at = start_time
        self.pending: Dict[int, float] = {}
        self.done = False
        self.at_barrier = False


class _Block:
    __slots__ = ("warps", "arrived", "barrier_time", "done_count", "finish_time")

    def __init__(self) -> None:
        self.warps: List[_Warp] = []
        self.arrived = 0
        self.barrier_time = 0.0
        self.done_count = 0
        self.finish_time = 0.0


def simulate_sm_reference(
    trace: WarpTrace,
    warps_per_block: int,
    blocks_resident: int,
    total_blocks: int,
    config: SimConfig,
) -> SMResult:
    """Replay ``total_blocks`` copies of a block's warps on one SM.

    Semantics identical to :func:`repro.sim.sm.simulate_sm`.
    """
    if total_blocks < blocks_resident:
        blocks_resident = total_blocks
    memory = MemorySystem(config)
    events = trace.events
    issue_cost = config.issue_cycles_per_instruction
    sfu_cost = config.sfu_cycles_per_instruction

    blocks = [_Block() for _ in range(blocks_resident)]
    heap: List[tuple] = []
    sequence = 0
    for block in blocks:
        for _ in range(warps_per_block):
            warp = _Warp(sequence, block)
            block.warps.append(warp)
            heapq.heappush(heap, (0.0, sequence, warp))
            sequence += 1

    port_free = 0.0
    sfu_free = 0.0
    issue_busy = 0.0
    finished_blocks = 0
    blocks_started = blocks_resident
    finish_time = 0.0

    def settle(warp: _Warp) -> bool:
        """Advance through non-port events; True if warp can issue."""
        nonlocal finished_blocks, blocks_started, finish_time, sequence
        while True:
            if warp.pos >= len(events):
                warp.done = True
                block = warp.block
                block.done_count += 1
                block.finish_time = max(block.finish_time, warp.ready_at)
                if block.done_count == len(block.warps):
                    finished_blocks += 1
                    finish_time = max(finish_time, block.finish_time)
                    if blocks_started < total_blocks:
                        blocks_started += 1
                        restart = block.finish_time
                        block.done_count = 0
                        block.arrived = 0
                        block.barrier_time = 0.0
                        block.finish_time = 0.0
                        for w in block.warps:
                            w.reset(restart)
                            sequence += 1
                            heapq.heappush(heap, (restart, sequence, w))
                return False
            kind, a, b = events[warp.pos]
            if kind == USE:
                warp.ready_at = max(warp.ready_at, warp.pending.pop(a, 0.0))
                warp.pos += 1
                continue
            if kind == BARRIER:
                block = warp.block
                block.arrived += 1
                block.barrier_time = max(block.barrier_time, warp.ready_at)
                warp.at_barrier = True
                warp.pos += 1
                if block.arrived == len(block.warps):
                    release = block.barrier_time
                    block.arrived = 0
                    block.barrier_time = 0.0
                    for w in block.warps:
                        w.at_barrier = False
                        w.ready_at = max(w.ready_at, release)
                        sequence += 1
                        heapq.heappush(heap, (w.ready_at, sequence, w))
                return False
            return True

    while heap:
        _, _, warp = heapq.heappop(heap)
        if warp.done or warp.at_barrier:
            continue
        if not settle(warp):
            continue
        kind, a, b = events[warp.pos]
        start = max(port_free, warp.ready_at)
        if kind == COMPUTE:
            duration = a * issue_cost
            warp.ready_at = start + duration
        elif kind == SFU:
            # Issue occupies the port briefly; the SFU pipeline is a
            # separate throughput-limited resource, and the result is
            # scoreboarded until its latency elapses.
            duration = issue_cost
            sfu_free = max(sfu_free, start + duration) + sfu_cost
            warp.pending[a] = sfu_free + config.sfu_result_latency
            warp.ready_at = start + duration
        elif kind == LOAD:
            duration = issue_cost
            bytes_, latency = b
            completion = memory.request(start + duration, bytes_, latency)
            warp.pending[a] = completion
            warp.ready_at = start + duration
        elif kind == STORE:
            duration = issue_cost
            memory.request(start + duration, b, 0.0)
            warp.ready_at = start + duration
        else:
            raise SimulationDeadlock(f"unexpected event kind {kind}")
        port_free = start + duration
        issue_busy += duration
        warp.pos += 1
        sequence += 1
        heapq.heappush(heap, (warp.ready_at, sequence, warp))

    if finished_blocks < total_blocks:
        raise SimulationDeadlock(
            f"completed {finished_blocks}/{total_blocks} blocks"
        )
    return SMResult(
        # A block is not done until its outstanding stores drain; the
        # pipe term is what makes store-bound kernels bandwidth-bound.
        cycles=max(finish_time, port_free, memory.pipe_free_at),
        blocks_completed=finished_blocks,
        issue_busy_cycles=issue_busy,
        dram_bytes=memory.total_bytes,
        dram_busy_cycles=memory.busy_cycles,
    )


__all__ = ["build_trace_reference", "simulate_sm_reference"]
