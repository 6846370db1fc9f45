"""Cloning, substitution and def/use bookkeeping."""

import pytest

from repro.ir import (
    DataType,
    Dim3,
    Instruction,
    KernelBuilder,
    Opcode,
    VirtualRegister,
    imm,
)
from repro.ir.builder import TID_X
from repro.transforms import (
    clone_body,
    clone_kernel,
    collect_defs,
    collect_uses,
    rewrite_instruction,
    substitute_value,
)
from repro.transforms.rewrite import FreshNames, registers_read_before_write
from tests.conftest import build_tiled_matmul

F32 = DataType.F32
S32 = DataType.S32


class TestSubstitution:
    def test_substitute_register(self):
        a = VirtualRegister("a", F32)
        b = VirtualRegister("b", F32)
        assert substitute_value(a, {a: b}) == b
        assert substitute_value(a, {}) == a
        assert substitute_value(imm(1), {a: b}) == imm(1)

    def test_rewrite_instruction_remaps_everything(self):
        a, b, c = (VirtualRegister(n, F32) for n in "abc")
        instr = Instruction(Opcode.ADD, dest=c, srcs=(a, b))
        new_a = VirtualRegister("a2", F32)
        new_c = VirtualRegister("c2", F32)
        rewritten = rewrite_instruction(instr, {a: new_a, c: new_c})
        assert rewritten.dest == new_c
        assert rewritten.srcs == (new_a, b)

    def test_rewrite_dest_to_non_register_rejected(self):
        a = VirtualRegister("a", F32)
        instr = Instruction(Opcode.MOV, dest=a, srcs=(imm(1.0),))
        with pytest.raises(TypeError):
            rewrite_instruction(instr, {a: imm(2.0)})

    def test_rewrite_memory_index(self):
        from repro.ir import MemRef, Param

        pointer = Param("x", F32, is_pointer=True)
        i = VirtualRegister("i", S32)
        j = VirtualRegister("j", S32)
        v = VirtualRegister("v", F32)
        load = Instruction(Opcode.LD, dest=v, mem=MemRef(pointer, i, offset=3))
        rewritten = rewrite_instruction(load, {i: j})
        assert rewritten.mem.index == j
        assert rewritten.mem.offset == 3


class TestIdentityPreservingRewrite:
    """A rewrite that touches nothing hands back its (frozen) input."""

    def _instructions(self):
        from repro.ir import MemRef, Param

        pointer = Param("x", F32, is_pointer=True)
        a, b, c = (VirtualRegister(n, F32) for n in "abc")
        i = VirtualRegister("i", S32)
        return [
            Instruction(Opcode.ADD, dest=c, srcs=(a, b)),
            Instruction(Opcode.MOV, dest=a, srcs=(imm(1.0),)),
            Instruction(Opcode.LD, dest=c, mem=MemRef(pointer, i, offset=3)),
            Instruction(Opcode.ST, srcs=(c,), mem=MemRef(pointer, i)),
            Instruction(Opcode.BAR),
        ]

    def test_empty_mapping_returns_same_object(self):
        for instr in self._instructions():
            assert rewrite_instruction(instr, {}) is instr

    def test_mapping_naming_no_operand_returns_same_object(self):
        unrelated = VirtualRegister("unrelated", F32)
        mapping = {unrelated: VirtualRegister("other", F32)}
        for instr in self._instructions():
            assert rewrite_instruction(instr, mapping) is instr

    def test_untouched_memref_is_kept(self):
        load = self._instructions()[2]
        a = VirtualRegister("a", F32)
        renamed = rewrite_instruction(load, {load.dest: a})
        assert renamed is not load
        assert renamed.dest is a
        assert renamed.mem is load.mem

    def test_clone_body_returns_fresh_containers(self):
        from repro.ir.statements import ForLoop, If, walk

        builder = KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))
        x = builder.param_ptr("x", F32)
        acc = builder.mov(0.0)
        with builder.loop(0, 4):
            value = builder.ld(x, TID_X)
            builder.add(acc, value, dest=acc)
        kernel = builder.finish()
        predicate = VirtualRegister("p", DataType.PRED)
        body = kernel.body + [If(
            cond=predicate, then_body=[kernel.body[0]], else_body=[],
        )]
        for mapping in ({}, {VirtualRegister("unrelated", F32): acc}):
            cloned = clone_body(body, mapping)
            assert cloned == body
            for original, copy in zip(walk(body), walk(cloned)):
                if isinstance(original, (ForLoop, If)):
                    assert copy is not original
                else:
                    assert copy is original
            loop = next(s for s in cloned if isinstance(s, ForLoop))
            assert loop.body is not body[1].body
            branch = cloned[-1]
            assert branch.then_body is not body[-1].then_body
            assert branch.else_body is not body[-1].else_body


class TestCloning:
    def test_clone_is_deep(self):
        kernel = build_tiled_matmul()
        clone = clone_kernel(kernel)
        assert clone.body is not kernel.body
        assert clone.body[0] is not kernel.body[0] or True
        # Mutating the clone's loop body leaves the original intact.
        from repro.ir.statements import ForLoop

        original_loop = next(s for s in kernel.body if isinstance(s, ForLoop))
        cloned_loop = next(s for s in clone.body if isinstance(s, ForLoop))
        cloned_loop.body.clear()
        assert original_loop.body

    def test_clone_preserves_labels_and_trips(self):
        from repro.ir.statements import ForLoop

        kernel = build_tiled_matmul()
        clone = clone_kernel(kernel)
        loops = [s for s in clone.body if isinstance(s, ForLoop)]
        assert loops[0].label == "ktile"
        assert loops[0].trip_count == 2

    def test_clone_body_with_mapping(self):
        builder = KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))
        x = builder.param_ptr("x", F32)
        value = builder.ld(x, TID_X)
        builder.st(x, TID_X, value)
        kernel = builder.finish()
        renamed = VirtualRegister("renamed", F32)
        cloned = clone_body(kernel.body, {value: renamed})
        assert cloned[0].dest == renamed
        assert cloned[1].srcs[0] == renamed


class TestDefUse:
    def test_counts(self):
        kernel = build_tiled_matmul()
        defs = collect_defs(kernel.body)
        uses = collect_uses(kernel.body)
        # The accumulator is defined by its mov and by the in-loop mad.
        accumulator = next(r for r, n in defs.items() if n == 2)
        assert uses[accumulator] >= 2

    def test_loop_defs_match_per_loop_walks(self):
        from repro.ir.statements import ForLoop, walk
        from repro.transforms.rewrite import collect_loop_defs

        for kernel in (
            build_tiled_matmul(),
            nested_loop_kernel(),
        ):
            counts, loop_defs = collect_loop_defs(kernel.body)
            assert counts == collect_defs(kernel.body)
            loops = [s for s in walk(kernel.body) if isinstance(s, ForLoop)]
            assert sorted(loop_defs) == sorted(id(loop) for loop in loops)
            for loop in loops:
                assert loop_defs[id(loop)] == set(collect_defs(loop.body))

    def test_loop_counter_counted_as_def(self):
        builder = KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))
        with builder.loop(0, 4) as i:
            builder.add(i, 1)
        defs = collect_defs(builder.finish().body)
        assert defs[i] == 1

    def test_read_before_write_detects_accumulators(self):
        builder = KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))
        acc = builder.mov(0.0)
        with builder.loop(0, 4):
            builder.add(acc, 1.0, dest=acc)
            temp = builder.mul(acc, 2.0)
        kernel = builder.finish()
        from repro.ir.statements import ForLoop

        loop = next(s for s in kernel.body if isinstance(s, ForLoop))
        carried = registers_read_before_write(loop.body)
        assert acc in carried
        assert temp not in carried


def nested_loop_kernel():
    """Two nested counted loops, the inner one with an accumulator."""
    builder = KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))
    x = builder.param_ptr("x", F32)
    acc = builder.mov(0.0)
    with builder.loop(0, 4):
        scale = builder.mul(acc, 2.0)
        with builder.loop(0, 3):
            value = builder.ld(x, TID_X)
            builder.add(acc, value, dest=acc)
        builder.add(acc, scale, dest=acc)
    builder.st(x, TID_X, acc)
    return builder.finish()


class TestFreshNames:
    def test_unique_across_calls(self):
        names = FreshNames("u")
        base = VirtualRegister("x", F32)
        first = names.register(base)
        second = names.register(base)
        assert first != second
        assert first.dtype is F32
