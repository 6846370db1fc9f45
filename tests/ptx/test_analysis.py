"""Static analysis: Instr, Regions, instruction mix, memory traffic.

The region rules come straight from Section 4:
* blocking = barriers + long-latency loads;
* sequences of independent long-latency loads are one unit;
* SFU ops block only when nothing longer-latency exists;
* Regions = blocking events + 1 (entry/exit delimit the stream).
"""

import pytest

from repro.ir import CmpOp, DataType, Dim3, KernelBuilder
from repro.ir.builder import TID_X
from repro.ptx import (
    InstrClass,
    KernelView,
    count_instructions,
    count_regions,
    memory_traffic,
    profile_kernel,
)
from tests.conftest import build_saxpy, build_tiled_matmul
from tests.ptx.oracles import ControlOp, expand_dynamic

F32 = DataType.F32


def builder():
    return KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))


class TestInstructionCounting:
    def test_straight_line(self):
        total, mix = count_instructions(build_saxpy())
        assert total == 5
        assert mix[InstrClass.GLOBAL_LOAD] == 2
        assert mix[InstrClass.GLOBAL_STORE] == 1
        assert mix[InstrClass.ALU] == 2

    def test_loop_overhead(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 10):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
        total, mix = count_instructions(b.finish())
        # init + 10 * (2 body + 3 overhead)
        assert total == 1 + 10 * (2 + 3)
        assert mix[InstrClass.CONTROL] == 1 + 30

    def test_nested_loops_multiply(self):
        b = builder()
        acc = b.mov(0.0)
        with b.loop(0, 4):
            with b.loop(0, 8):
                b.add(acc, 1.0, dest=acc)
        total, _ = count_instructions(b.finish())
        inner = 1 + 8 * (1 + 3)
        assert total == 1 + 1 + 4 * (inner + 3)

    def test_conditional_weighting(self):
        b = builder()
        pred = b.setp(CmpOp.LT, TID_X, 16)
        with b.if_(pred, taken_fraction=0.25) as branch:
            b.add(1, 2)
            b.add(3, 4)
        with branch.orelse():
            b.add(5, 6)
        total, _ = count_instructions(b.finish())
        # setp + branch + 0.25*(2 then + 1 jump) + 0.75*1 else
        assert total == pytest.approx(1 + 1 + 0.25 * 3 + 0.75 * 1)

    def test_matmul_count_scales_with_size(self):
        small, _ = count_instructions(build_tiled_matmul(n=32))
        large, _ = count_instructions(build_tiled_matmul(n=64))
        # Twice the tile iterations => roughly twice the instructions.
        assert large / small == pytest.approx(2.0, rel=0.1)


class TestRegions:
    def test_no_blocking_means_one_region(self):
        b = builder()
        b.add(1, 2)
        b.add(3, 4)
        assert count_regions(b.finish()) == 1

    def test_independent_loads_group_into_one_unit(self):
        assert count_regions(build_saxpy()) == 2

    def test_dependent_loads_split(self):
        b = builder()
        x = b.param_ptr("idx", DataType.S32)
        y = b.param_ptr("y", F32)
        first = b.ld(x, TID_X)          # load the index
        value = b.ld(y, first)          # dependent load -> new unit
        b.st(y, TID_X, value)
        assert count_regions(b.finish()) == 3

    def test_use_closes_group(self):
        b = builder()
        x = b.param_ptr("x", F32)
        a = b.ld(x, TID_X)
        doubled = b.add(a, a)           # use of a closes the group
        c = b.ld(x, TID_X, offset=1)    # new group
        b.st(x, TID_X, b.add(doubled, c))
        assert count_regions(b.finish()) == 3

    def test_barriers_count(self):
        b = builder()
        b.shared("s", F32, (32,))
        b.bar()
        b.bar()
        assert count_regions(b.finish()) == 3

    def test_matmul_three_events_per_iteration(self):
        # Per tile iteration: one load unit + two barriers.
        kernel = build_tiled_matmul(n=32)   # 2 iterations
        assert count_regions(kernel) == 2 * 3 + 1

    def test_sfu_blocks_only_without_longer_latency(self):
        b = builder()
        x = b.param_ptr("x", F32)
        v = b.rsqrt(2.0)
        b.st(x, TID_X, v)
        kernel = b.finish()
        assert not KernelView(kernel).has_long_latency
        assert count_regions(kernel) == 2   # the rsqrt blocks

        b = builder()
        x = b.param_ptr("x", F32)
        loaded = b.ld(x, TID_X)
        v = b.rsqrt(loaded)
        b.st(x, TID_X, v)
        kernel = b.finish()
        assert KernelView(kernel).has_long_latency
        assert count_regions(kernel) == 2   # only the load blocks


class TestExpansion:
    def test_loop_expansion_length(self):
        b = builder()
        acc = b.mov(0)
        with b.loop(0, 5):
            b.add(acc, 1, dest=acc)
        ops = list(expand_dynamic(b.finish()))
        control = sum(1 for op in ops if isinstance(op, ControlOp))
        assert len(ops) == 1 + 1 + 5 * 4
        assert control == 1 + 5 * 3

    def test_divergent_branch_expands_both_sides(self):
        b = builder()
        pred = b.setp(CmpOp.LT, TID_X, 16)
        with b.if_(pred, taken_fraction=0.5) as branch:
            b.add(1, 2)
        with branch.orelse():
            b.add(3, 4)
            b.add(5, 6)
        ops = [op for op in expand_dynamic(b.finish()) if not isinstance(op, ControlOp)]
        assert len(ops) == 1 + 1 + 2  # setp + both sides

    def test_biased_branch_expands_one_side(self):
        b = builder()
        pred = b.setp(CmpOp.LT, TID_X, 16)
        with b.if_(pred, taken_fraction=1.0) as branch:
            b.add(1, 2)
        with branch.orelse():
            b.add(3, 4)
            b.add(5, 6)
        ops = [op for op in expand_dynamic(b.finish()) if not isinstance(op, ControlOp)]
        assert len(ops) == 1 + 1

    def test_runaway_expansion_capped(self):
        b = builder()
        acc = b.mov(0)
        with b.loop(0, 3000):
            with b.loop(0, 3000):
                b.add(acc, 1, dest=acc)
        with pytest.raises(OverflowError, match="expansion exceeds"):
            list(expand_dynamic(b.finish()))


class TestMemoryTraffic:
    def test_per_thread_bytes(self):
        traffic = memory_traffic(build_saxpy())
        assert traffic.load_bytes == 8.0
        assert traffic.store_bytes == 4.0
        assert traffic.total_bytes == 12.0

    def test_loop_scales_traffic(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 10) as i:
            v = b.ld(x, i, coalesced=False)
            b.st(x, i, v)
        traffic = memory_traffic(b.finish())
        assert traffic.load_bytes == 40.0
        assert traffic.uncoalesced_load_bytes == 40.0
        assert traffic.uncoalesced_store_bytes == 0.0

    def test_shared_accesses_not_counted(self):
        b = builder()
        shared = b.shared("s", F32, (32,))
        value = b.mov(1.0)
        b.st(shared, TID_X, value)
        traffic = memory_traffic(b.finish())
        assert traffic.total_bytes == 0.0


class TestProfile:
    def test_profile_bundles_everything(self):
        profile = profile_kernel(build_tiled_matmul())
        assert profile.instructions > 0
        assert profile.regions == 7
        assert profile.instructions_per_region == pytest.approx(
            profile.instructions / 7
        )
        assert profile.traffic.load_bytes > 0
