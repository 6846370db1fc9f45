"""The pass algebra ``standard_cleanup`` certifies passes by.

Constant folding, CSE and LICM each hand back a fixpoint of
themselves when they change a kernel, and dead-code elimination keeps
every certificate that held on its input (see "Pass algebra" in
docs/compile_pipeline.md).  Both properties are checked on generated
kernels — plain, and unrolled by 1, 2, 3 and completely — at every
kernel the plain round-by-round cleanup passes through, and the
driver that relies on them must return exactly what the plain loop
and the PTX-comparing oracle return.  ``--hypothesis-profile=deep``
(nightly) draws 2000 kernels per property instead of tier-1's 100.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir import validate
from repro.transforms import (
    COMPLETE,
    constant_fold,
    constant_fold_changed,
    eliminate_common_subexpressions_changed,
    eliminate_dead_code_changed,
    hoist_loop_invariants_changed,
    standard_cleanup,
    unroll,
)
from repro.transforms import pipeline
from tests.ir.kernels import structured_kernels
from tests.transforms.oracles import standard_cleanup_reference

pytestmark = pytest.mark.fast

_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: the passes whose change certifies their own output
SELF_CERTIFYING = (
    constant_fold_changed,
    eliminate_common_subexpressions_changed,
    hoist_loop_invariants_changed,
)

UNROLL_FACTORS = (1, 2, 3, COMPLETE)


def _variants(kernel):
    """The kernel and its innermost loops unrolled by each factor.

    Loops with register bounds get immediate ones from one fold first,
    so that every loop can be unrolled.
    """
    yield kernel
    folded = constant_fold(kernel)
    for factor in UNROLL_FACTORS:
        yield unroll(folded, factor)


def _plain_sequence(kernel):
    """Every kernel the plain round-by-round cleanup passes through."""
    seen = [kernel]
    for _ in range(pipeline._MAX_ROUNDS):
        changed = False
        for run_pass, _, _ in pipeline._ROUND:
            kernel, pass_changed = run_pass(kernel)
            if pass_changed:
                seen.append(kernel)
            changed = changed or pass_changed
        if not changed:
            break
    return seen


def _check_algebra(kernel):
    certified = []
    for run_pass in SELF_CERTIFYING:
        result, changed = run_pass(kernel)
        if changed:
            again, changed_again = run_pass(result)
            assert changed_again is False, run_pass.__name__
            assert again is result
        else:
            assert result is kernel
            certified.append(run_pass)
    swept, changed = eliminate_dead_code_changed(kernel)
    if changed:
        for run_pass in certified:
            result, changed_after = run_pass(swept)
            assert changed_after is False, run_pass.__name__
            assert result is swept


class TestPassAlgebra:
    @_SETTINGS
    @given(structured_kernels())
    def test_changes_certify_themselves_and_dce_keeps_certificates(self, kernel):
        for variant in _variants(kernel):
            validate(variant)
            for step in _plain_sequence(variant):
                _check_algebra(step)

    @_SETTINGS
    @given(structured_kernels())
    def test_driver_equals_plain_rounds_and_reference(self, kernel):
        for variant in _variants(kernel):
            settled = standard_cleanup(variant)
            validate(settled)
            assert settled == _plain_sequence(variant)[-1]
            assert settled == standard_cleanup_reference(variant)


def _assert_fold_fixpoint(kernel):
    folded, changed = constant_fold_changed(kernel)
    assert changed is True
    validate(folded)
    again, changed_again = constant_fold_changed(folded)
    assert changed_again is False
    assert again is folded
    return folded


class TestFoldSettles:
    """Kernels on which one plain fold sweep would leave work for a
    second: the fold repeats (or re-simplifies) until it has none."""

    def _builder(self):
        from repro.ir import Dim3, KernelBuilder

        return KernelBuilder("k", block_dim=Dim3(16), grid_dim=Dim3(1))

    def test_pruned_if_arm_leaves_a_single_def(self):
        # x has two defs until the else arm is pruned; then x = 5 folds.
        from repro.ir import CmpOp, DataType
        from repro.ir.builder import TID_X

        b = self._builder()
        out = b.param_ptr("out", DataType.S32)
        with b.if_(b.setp(CmpOp.LT, 1, 2)) as branch:
            x = b.mov(5, dtype=DataType.S32)
        with branch.orelse():
            b.mov(6, dtype=DataType.S32, dest=x)
        b.st(out, TID_X, x)
        kernel = b.finish()
        validate(kernel)
        folded = _assert_fold_fixpoint(kernel)
        assert folded.body[-1].srcs[0].value == 5

    def test_pruned_if_arm_held_the_read_of_a_reemitted_copy(self):
        from repro.ir import CmpOp, DataType
        from repro.ir.builder import TID_X

        b = self._builder()
        data = b.param_ptr("data", DataType.S32)
        with b.loop(0, 4):
            c = b.mov(b.ld(data, TID_X))
        with b.if_(b.setp(CmpOp.LT, 2, 1)):
            b.st(data, TID_X, c)
        b.st(data, TID_X, 7)
        _assert_fold_fixpoint(b.finish())

    def test_simplified_reader_of_a_reemitted_copy(self):
        # c is re-emitted after the loop for z = c + 0 alone, which
        # binds to c and is dropped; nothing reads z.
        from repro.ir import DataType
        from repro.ir.builder import TID_X

        b = self._builder()
        data = b.param_ptr("data", DataType.S32)
        with b.loop(0, 4):
            c = b.mov(b.ld(data, TID_X))
        b.add(c, 0)
        b.st(data, TID_X, 7)
        _assert_fold_fixpoint(b.finish())

    @pytest.mark.parametrize("dtype_name, make", [
        ("F32", lambda b, x: b.mad(0.0, 3.0, x)),    # add 0.0, x
        ("S32", lambda b, x: b.mad(1, x, 0)),        # mul 1, x
    ])
    def test_rewritten_mad_is_simplified_again(self, dtype_name, make):
        from repro.ir import DataType, Opcode
        from repro.ir.builder import TID_X
        from repro.ir.statements import instructions

        b = self._builder()
        data = b.param_ptr("data", DataType[dtype_name])
        b.st(data, TID_X, make(b, b.ld(data, TID_X)))
        folded = _assert_fold_fixpoint(b.finish())
        assert [i.opcode for i in instructions(folded.body)] == [
            Opcode.LD, Opcode.ST,
        ]
