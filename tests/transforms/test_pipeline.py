"""The standard cleanup pipeline."""

import numpy as np

from repro.ptx import count_instructions, emit_ptx
from repro.transforms import COMPLETE, standard_cleanup, unroll
from tests.conftest import build_tiled_matmul, run_matmul_kernel


class TestStandardCleanup:
    def test_idempotent(self):
        once = standard_cleanup(build_tiled_matmul())
        twice = standard_cleanup(once)
        assert emit_ptx(once) == emit_ptx(twice)

    def test_never_increases_instructions(self):
        kernel = unroll(build_tiled_matmul(), COMPLETE, label="inner")
        before, _ = count_instructions(kernel)
        after, _ = count_instructions(standard_cleanup(kernel))
        assert after <= before

    def test_unrolled_addresses_fold_into_offsets(self):
        text = emit_ptx(standard_cleanup(
            unroll(build_tiled_matmul(), COMPLETE, label="inner")
        ))
        # The paper's observation: unrolled shared loads use constant
        # offsets from a single base register.
        assert "+15]" in text

    def test_semantics_preserved(self):
        kernel = standard_cleanup(
            unroll(build_tiled_matmul(n=32), 4, label="inner")
        )
        result, reference = run_matmul_kernel(kernel, 32)
        np.testing.assert_allclose(result, reference, rtol=1e-4, atol=1e-4)

    def test_original_kernel_not_mutated(self):
        kernel = build_tiled_matmul()
        fingerprint = emit_ptx(kernel)
        standard_cleanup(kernel)
        assert emit_ptx(kernel) == fingerprint


class TestChangedVariants:
    """Every pass reports change as an exact structural fact."""

    def test_unchanged_pass_returns_same_object(self):
        from repro.transforms import (
            constant_fold_changed,
            eliminate_common_subexpressions_changed,
            eliminate_dead_code_changed,
            hoist_loop_invariants_changed,
        )

        settled = standard_cleanup(
            unroll(build_tiled_matmul(), 4, label="inner")
        )
        for run_pass in (
            constant_fold_changed,
            eliminate_common_subexpressions_changed,
            hoist_loop_invariants_changed,
            eliminate_dead_code_changed,
        ):
            result, changed = run_pass(settled)
            assert changed is False
            assert result is settled  # no clone, no emit, no allocation

    def test_changing_pass_reports_true(self):
        from repro.transforms import eliminate_common_subexpressions_changed

        kernel = unroll(build_tiled_matmul(), 4, label="inner")
        shared, changed = eliminate_common_subexpressions_changed(kernel)
        assert changed is True
        assert shared is not kernel

    def test_changed_flag_matches_emitted_ptx(self):
        from repro.transforms import (
            constant_fold_changed,
            eliminate_common_subexpressions_changed,
            eliminate_dead_code_changed,
            hoist_loop_invariants_changed,
        )

        kernel = unroll(build_tiled_matmul(), COMPLETE, label="inner")
        for run_pass in (
            constant_fold_changed,
            eliminate_common_subexpressions_changed,
            hoist_loop_invariants_changed,
            eliminate_dead_code_changed,
        ):
            result, changed = run_pass(kernel)
            assert changed == (emit_ptx(result) != emit_ptx(kernel))
            kernel = result


class TestDifferentialAgainstReference:
    """standard_cleanup must match the PTX-string-comparison oracle."""

    def _sample_kernels(self):
        from repro.apps import all_applications

        for app in all_applications():
            small = app.test_instance()
            configs = list(small.space())
            step = max(1, len(configs) // 8)
            for config in configs[::step]:
                try:
                    yield small.build_kernel(config)
                except Exception:
                    continue

    def test_app_kernels_bit_identical_to_reference(self):
        from tests.transforms.oracles import standard_cleanup_reference

        checked = 0
        for kernel in self._sample_kernels():
            # build_kernel already ran standard_cleanup; rerunning both
            # drivers from the settled kernel checks the converged case,
            # and re-unrolling checks a kernel with real work left.
            assert emit_ptx(standard_cleanup(kernel)) == emit_ptx(
                standard_cleanup_reference(kernel)
            )
            checked += 1
        assert checked >= 20

    def test_unconverged_kernel_bit_identical_to_reference(self):
        from tests.transforms.oracles import standard_cleanup_reference

        for factor in (2, 4, COMPLETE):
            kernel = unroll(build_tiled_matmul(), factor, label="inner")
            assert emit_ptx(standard_cleanup(kernel)) == emit_ptx(
                standard_cleanup_reference(kernel)
            )
