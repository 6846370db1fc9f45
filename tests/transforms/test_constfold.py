"""Constant folding, propagation, algebraic identities, address folding.

Every kernel here is synthetic, so the whole module runs in the
``fast`` smoke job and a folding regression fails it.
"""

import numpy as np
import pytest

from repro.ir import DataType, Dim3, Immediate, KernelBuilder, Opcode, validate
from repro.ir.builder import TID_X
from repro.ir.statements import instructions
from repro.transforms import constant_fold, eliminate_dead_code

pytestmark = pytest.mark.fast

F32 = DataType.F32
S32 = DataType.S32


def builder():
    return KernelBuilder("k", block_dim=Dim3(16), grid_dim=Dim3(1))


def ops(kernel):
    return [i.opcode for i in instructions(kernel.body)]


def fold(kernel):
    return eliminate_dead_code(constant_fold(kernel))


class TestEvaluation:
    def test_all_immediate_operands_evaluate(self):
        b = builder()
        out = b.param_ptr("out", S32)
        value = b.add(2, 3)
        b.st(out, TID_X, value)
        kernel = fold(b.finish())
        store = list(instructions(kernel.body))[-1]
        assert store.srcs[0] == Immediate(5, S32)
        assert ops(kernel) == [Opcode.ST]

    def test_chains_collapse(self):
        b = builder()
        out = b.param_ptr("out", S32)
        a = b.add(2, 3)
        c = b.mul(a, 4)
        d = b.sub(c, 6)
        b.st(out, TID_X, d)
        kernel = fold(b.finish())
        assert ops(kernel) == [Opcode.ST]
        assert list(instructions(kernel.body))[0].srcs[0].value == 14

    def test_predicate_folding_selects_branch(self):
        from repro.ir import CmpOp

        b = builder()
        out = b.param_ptr("out", S32)
        pred = b.setp(CmpOp.LT, 1, 2)
        with b.if_(pred) as branch:
            b.st(out, TID_X, 111)
        with branch.orelse():
            b.st(out, TID_X, 222)
        kernel = fold(b.finish())
        stores = list(instructions(kernel.body))
        assert len(stores) == 1
        assert stores[0].srcs[0].value == 111


class TestAlgebraicIdentities:
    @pytest.mark.parametrize("build_value, expected_ops", [
        (lambda b: b.add(TID_X, 0), [Opcode.ST]),
        (lambda b: b.mul(TID_X, 1), [Opcode.ST]),
        (lambda b: b.sub(TID_X, 0), [Opcode.ST]),
        (lambda b: b.shl(TID_X, 0), [Opcode.ST]),
    ])
    def test_identity_ops_vanish(self, build_value, expected_ops):
        b = builder()
        out = b.param_ptr("out", S32)
        b.st(out, TID_X, build_value(b))
        assert ops(fold(b.finish())) == expected_ops

    def test_multiply_by_zero(self):
        b = builder()
        out = b.param_ptr("out", S32)
        b.st(out, TID_X, b.mul(TID_X, 0))
        kernel = fold(b.finish())
        assert list(instructions(kernel.body))[0].srcs[0].value == 0

    def test_mad_with_immediate_product_becomes_add(self):
        b = builder()
        out = b.param_ptr("out", S32)
        b.st(out, TID_X, b.mad(3, 4, TID_X))
        kernel = fold(b.finish())
        remaining = [i for i in instructions(kernel.body) if i.opcode is Opcode.ADD]
        assert len(remaining) == 1
        assert Immediate(12, S32) in remaining[0].srcs

    def test_mov_copy_propagates(self):
        b = builder()
        out = b.param_ptr("out", S32)
        copy = b.mov(TID_X)
        b.st(out, TID_X, copy)
        kernel = fold(b.finish())
        assert ops(kernel) == [Opcode.ST]


class TestAddressFolding:
    def test_add_immediate_folds_into_offset(self):
        b = builder()
        data = b.param_ptr("data", F32)
        shifted = b.add(TID_X, 5)
        value = b.ld(data, shifted)
        b.st(data, shifted, value)
        kernel = fold(b.finish())
        load = next(i for i in instructions(kernel.body) if i.opcode is Opcode.LD)
        assert load.mem.offset == 5
        assert str(load.mem.index) == "%tid.x"
        # The add itself became dead and was swept.
        assert Opcode.ADD not in ops(kernel)

    def test_chained_adds_fold(self):
        b = builder()
        data = b.param_ptr("data", F32)
        first = b.add(TID_X, 3)
        second = b.add(first, 4)
        b.st(data, second, b.mov(1.0))
        kernel = fold(b.finish())
        store = next(i for i in instructions(kernel.body) if i.opcode is Opcode.ST)
        assert store.mem.offset == 7

    def test_multi_def_base_not_folded_across_redefinition(self):
        """The unsoundness trap: base is redefined between add and use."""
        b = builder()
        data = b.param_ptr("data", S32)
        index = b.mov(TID_X, dtype=S32)
        shifted = b.add(index, 1)
        b.add(index, 100, dest=index)       # index changes!
        b.st(data, shifted, 7)
        kernel = fold(b.finish())
        validate(kernel)
        from repro.interp import launch

        out = np.zeros(128, dtype=np.int32)
        launch(kernel, {"data": out})
        # Thread t must store at t+1, not t+101.
        assert out[1] == 7
        assert out[101] == 0 or out[101] == 7  # 101 written only by thread 100

    def test_counter_chain_not_folded_outside_loop(self):
        """Adds on the loop counter must not leak past the loop."""
        b = builder()
        data = b.param_ptr("data", S32)
        last = b.mov(0, dtype=S32)
        with b.loop(0, 4) as i:
            shifted = b.add(i, 10)
            b.mov(shifted, dest=last)
        b.st(data, last, 9)     # index = 3 + 10 = 13 (last iteration)
        kernel = fold(b.finish())
        from repro.interp import launch

        out = np.zeros(64, dtype=np.int32)
        launch(kernel, {"data": out})
        assert out[13] == 9


def memory_ops(kernel, opcode):
    return [i for i in instructions(kernel.body) if i.opcode is opcode]


def run(kernel, size=64):
    from repro.interp import launch

    out = np.zeros(size, dtype=np.int32)
    launch(kernel, {"data": out})
    return out


class TestIndexedInvalidation:
    """Redefining an accumulator drops exactly the chains reading it."""

    def test_only_chains_reading_the_register_stop_folding(self):
        b = KernelBuilder("k", block_dim=Dim3(1), grid_dim=Dim3(1))
        data = b.param_ptr("data", S32)
        acc = b.mov(TID_X, dtype=S32)
        reads_acc = b.add(acc, 1)
        unrelated = b.add(TID_X, 2)
        b.add(acc, 100, dest=acc)           # redefines acc
        b.st(data, reads_acc, 7)
        b.st(data, unrelated, 8)
        kernel = fold(b.finish())
        first, second = memory_ops(kernel, Opcode.ST)
        assert (first.mem.index, first.mem.offset) == (reads_acc, 0)
        assert (str(second.mem.index), second.mem.offset) == ("%tid.x", 2)
        assert list(np.nonzero(run(kernel, 256))[0]) == [1, 2]

    def test_chain_before_loop_invalidated_inside_it(self):
        """The loop rewrites acc after the use: from the second
        iteration on, acc + 1 no longer equals the chain's value, so
        the chain must not fold anywhere in (or after) the loop, while
        a chain on an unchanged register still folds inside it."""
        b = KernelBuilder("k", block_dim=Dim3(1), grid_dim=Dim3(1))
        data = b.param_ptr("data", S32)
        acc = b.mov(TID_X, dtype=S32)
        shifted = b.add(acc, 1)
        steady = b.add(TID_X, 40)
        with b.loop(0, 3):
            b.st(data, shifted, 5)
            b.st(data, steady, 6)
            b.add(acc, 16, dest=acc)
            b.st(data, shifted, 7)
        b.st(data, shifted, 9)
        kernel = fold(b.finish())
        stores = memory_ops(kernel, Opcode.ST)
        chain = str(shifted)
        assert [(str(s.mem.index), s.mem.offset) for s in stores] == [
            (chain, 0), ("%tid.x", 40), (chain, 0), (chain, 0),
        ]
        out = run(kernel)
        assert list(np.nonzero(out)[0]) == [1, 40]
        assert out[1] == 9 and out[40] == 6

    def test_chain_invalidated_inside_if(self):
        from repro.ir import CmpOp

        b = builder()
        data = b.param_ptr("data", S32)
        acc = b.mov(TID_X, dtype=S32)
        shifted = b.add(acc, 1)
        steady = b.add(TID_X, 20)
        pred = b.setp(CmpOp.LT, TID_X, 4)
        with b.if_(pred):
            b.st(data, shifted, 3)          # before the rewrite: folds
            b.add(acc, 32, dest=acc)
            b.st(data, shifted, 4)          # after it: must not
            b.st(data, steady, 5)
        b.st(data, shifted, 6)              # acc may have changed
        b.st(data, steady, 7)
        kernel = fold(b.finish())
        stores = memory_ops(kernel, Opcode.ST)
        assert [s.mem.offset for s in stores] == [1, 0, 20, 0, 20]
        assert stores[0].mem.index == acc
        assert [s.mem.index for s in stores[1::2]] == [shifted, shifted]
        out = run(kernel, 64)
        expected = np.zeros(64, dtype=np.int32)
        expected[1:17] = 6
        expected[20:36] = 7
        np.testing.assert_array_equal(out, expected)


class TestLoopSemantics:
    def test_folding_inside_loops_is_sound(self):
        b = builder()
        data = b.param_ptr("data", S32)
        total = b.mov(0, dtype=S32)
        with b.loop(0, 4) as i:
            doubled = b.mul(i, 2)
            b.add(total, doubled, dest=total)
        b.st(data, TID_X, total)
        kernel = fold(b.finish())
        from repro.interp import launch

        out = np.zeros(16, dtype=np.int32)
        launch(kernel, {"data": out})
        np.testing.assert_array_equal(out, np.full(16, 12, dtype=np.int32))


class TestScopeExit:
    """A copy whose destination outlives its loop or branch."""

    def _copy_read_after_loop(self):
        """``loop(0,4) { a = ld x[tid]; c = mov a }; st x[tid], c``"""
        b = builder()
        x = b.param_ptr("data", S32)
        with b.loop(0, 4):
            a = b.ld(x, TID_X)
            c = b.mov(a)
        b.st(x, TID_X, c)
        return b.finish()

    def _check(self, kernel, transform):
        validate(kernel)
        folded = transform(kernel)
        validate(folded)
        initial = np.arange(64, dtype=np.int32) + 3
        before, after = initial.copy(), initial.copy()
        from repro.interp import launch

        launch(kernel, {"data": before})
        launch(folded, {"data": after})
        np.testing.assert_array_equal(after, before)
        return folded

    def test_copy_read_after_loop_survives_constant_fold(self):
        self._check(self._copy_read_after_loop(), constant_fold)

    def test_copy_read_after_loop_survives_standard_cleanup(self):
        from repro.transforms import standard_cleanup

        self._check(self._copy_read_after_loop(), standard_cleanup)

    def test_copy_of_counter_read_after_loop(self):
        """The copy holds the last iteration's counter, not the
        counter's value after the loop."""
        b = builder()
        data = b.param_ptr("data", S32)
        with b.loop(0, 4) as i:
            c = b.mov(i)
        b.st(data, c, 9)
        self._check(b.finish(), fold)

    def test_copy_read_after_branch(self):
        from repro.ir import CmpOp

        b = builder()
        data = b.param_ptr("data", S32)
        pred = b.setp(CmpOp.LT, TID_X, 64)
        with b.if_(pred):
            a = b.ld(data, TID_X)
            c = b.mov(a)
        b.st(data, TID_X, c)
        self._check(b.finish(), fold)
