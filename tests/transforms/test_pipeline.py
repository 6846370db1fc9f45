"""The standard cleanup pipeline."""

import numpy as np
import pytest

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


_APP_MODULES = (
    "repro.apps.matmul",
    "repro.apps.cp",
    "repro.apps.mri_fhd",
    "repro.apps.sad",
)


def _cleanup_inputs(monkeypatch):
    """The kernels the four apps hand to ``standard_cleanup`` over a
    sample of each test instance's space (the real, unsettled work)."""
    from repro.apps import all_applications

    captured = []

    def recording(kernel):
        captured.append(kernel)
        return standard_cleanup(kernel)

    with monkeypatch.context() as patched:
        for module in _APP_MODULES:
            patched.setattr(f"{module}.standard_cleanup", recording)
        for app in all_applications():
            small = app.test_instance()
            configs = list(small.space())
            for config in configs[::max(1, len(configs) // 8)]:
                try:
                    small.build_kernel(config)
                except Exception:
                    continue
    return captured


def _counted_round(counts):
    """``pipeline._ROUND`` with every distinct pass wrapped once, so
    the wrapped round keeps its shape and counts applications."""
    from repro.transforms import pipeline

    wrapped = {}
    for run_pass, _, _ in pipeline._ROUND:
        if run_pass not in wrapped:
            def counting(kernel, summary=None, _run=run_pass):
                counts[0] += 1
                return _run(kernel, summary)
            wrapped[run_pass] = counting
    return tuple(
        (wrapped[run_pass], own, keeps)
        for run_pass, own, keeps in pipeline._ROUND
    )


def _plain_rounds(kernel, round_, max_rounds):
    """``standard_cleanup`` before certification: whole rounds until
    one changes nothing, at most ``max_rounds``."""
    for _ in range(max_rounds):
        changed = False
        for run_pass, _, _ in round_:
            kernel, pass_changed = run_pass(kernel)
            changed = changed or pass_changed
        if not changed:
            break
    return kernel


def _reset_driver(kernel, round_, max_rounds):
    """The certifying driver before the pass algebra: any change
    resets every certificate, and only a dead-code change certifies
    itself (the second flag of each ``round_`` entry is ignored)."""
    distinct = {run_pass for run_pass, _, _ in round_}
    dead_code = round_[-1][0]
    certified = set()
    for _ in range(max_rounds):
        for run_pass, _, _ in round_:
            if run_pass in certified:
                continue
            kernel, changed = run_pass(kernel)
            if changed:
                certified = {run_pass} if run_pass is dead_code else set()
            else:
                certified.add(run_pass)
                if len(certified) == len(distinct):
                    return kernel
    return kernel


class TestCertifiedFixpoint:
    """``standard_cleanup`` skips passes that already certified the kernel."""

    def test_applies_fewer_passes_than_plain_rounds(self, monkeypatch):
        from repro.transforms import pipeline

        inputs = _cleanup_inputs(monkeypatch)
        assert len(inputs) >= 20
        certified, plain = [0], [0]
        certified_round = _counted_round(certified)
        plain_round = _counted_round(plain)
        strictly_fewer = 0
        for kernel in inputs:
            before_certified, before_plain = certified[0], plain[0]
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "_ROUND", certified_round)
                settled = standard_cleanup(kernel)
            expected = _plain_rounds(kernel, plain_round, pipeline._MAX_ROUNDS)
            assert emit_ptx(settled) == emit_ptx(expected)
            spent = certified[0] - before_certified
            plain_spent = plain[0] - before_plain
            assert spent <= plain_spent
            strictly_fewer += spent < plain_spent
        assert strictly_fewer >= 1

    def test_pass_algebra_applies_fewer_passes_than_resetting(self, monkeypatch):
        # Self-certified fold, CSE and LICM changes and certificate-
        # keeping dead-code changes skip the re-confirming runs the
        # resetting driver made.  Seed-0 prune-cold's 145 full-size
        # cleanups took 826 applications before, 621 now.
        from repro.transforms import pipeline

        inputs = _cleanup_inputs(monkeypatch)
        algebra, resetting = [0], [0]
        algebra_round = _counted_round(algebra)
        resetting_round = _counted_round(resetting)
        for kernel in inputs:
            before, before_resetting = algebra[0], resetting[0]
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "_ROUND", algebra_round)
                settled = standard_cleanup(kernel)
            expected = _reset_driver(
                kernel, resetting_round, pipeline._MAX_ROUNDS
            )
            assert settled == expected
            assert algebra[0] - before <= resetting[0] - before_resetting
        assert algebra[0] <= 0.85 * resetting[0], (algebra[0], resetting[0])

    def test_app_cleanup_inputs_bit_identical_to_reference(self, monkeypatch):
        from tests.transforms.oracles import standard_cleanup_reference

        for kernel in _cleanup_inputs(monkeypatch):
            assert emit_ptx(standard_cleanup(kernel)) == emit_ptx(
                standard_cleanup_reference(kernel)
            )

    def test_round_bound_cuts_where_plain_rounds_do(self, monkeypatch):
        # An unconverged kernel stops after the same pass applications.
        from repro.transforms import pipeline
        from tests.transforms import oracles

        for max_rounds in (1, 2):
            monkeypatch.setattr(pipeline, "_MAX_ROUNDS", max_rounds)
            monkeypatch.setattr(oracles, "_MAX_ROUNDS", max_rounds)
            for factor in (2, 4, COMPLETE):
                kernel = unroll(build_tiled_matmul(), factor, label="inner")
                settled = standard_cleanup(kernel)
                assert emit_ptx(settled) == emit_ptx(
                    _plain_rounds(kernel, pipeline._ROUND, max_rounds)
                )
                assert emit_ptx(settled) == emit_ptx(
                    oracles.standard_cleanup_reference(kernel)
                )

    def test_changed_output_is_not_certified(self, monkeypatch):
        # A pass that changes the kernel may change its own output
        # again: only a pass flagged as its own fixpoint skips it.
        from repro.transforms import pipeline
        from repro.transforms.rewrite import clone_kernel

        def drop_first(kernel, summary=None):
            if len(kernel.body) <= 3:
                return kernel, False
            return clone_kernel(kernel, body=kernel.body[1:]), True

        def unchanged(kernel, summary=None):
            return kernel, False

        kernel = unroll(build_tiled_matmul(), COMPLETE, label="inner")
        assert len(kernel.body) > 6
        round_ = ((drop_first, False, False), (unchanged, False, False))
        monkeypatch.setattr(pipeline, "_ROUND", round_)
        assert len(standard_cleanup(kernel).body) == 3
        monkeypatch.setattr(pipeline, "_MAX_ROUNDS", 2)
        assert len(standard_cleanup(kernel).body) == len(kernel.body) - 2

    def test_dead_code_output_certifies_itself(self, monkeypatch):
        from repro.transforms import eliminate_dead_code_changed

        for kernel in _cleanup_inputs(monkeypatch):
            for candidate in (kernel, standard_cleanup(kernel)):
                swept, _ = eliminate_dead_code_changed(candidate)
                again, changed = eliminate_dead_code_changed(swept)
                assert changed is False
                assert again is swept


#: every SAD_STRIDE-th configuration of SAD's full space is checked in
#: tier-1; the deep hypothesis profile (nightly) checks all 828
SAD_STRIDE = 23


class TestFullSpacesAgainstReference:
    """Every cleanup the full-size applications run, against the
    PTX-comparing oracle: all of matmul, CP and MRI-FHD, and SAD at
    ``SAD_STRIDE`` (every configuration under the deep profile)."""

    def _check_space(self, app, monkeypatch, stride=1):
        from tests.transforms.oracles import standard_cleanup_reference

        checked = [0]

        def checking(kernel):
            settled = standard_cleanup(kernel)
            assert settled == standard_cleanup_reference(kernel)
            checked[0] += 1
            return settled

        with monkeypatch.context() as patched:
            for module in _APP_MODULES:
                patched.setattr(f"{module}.standard_cleanup", checking)
            for config in list(app.space())[::stride]:
                app.kernel(config)
        return checked[0]

    @pytest.mark.parametrize("name", ["matmul", "cp", "mri-fhd"])
    def test_every_configuration(self, name, monkeypatch):
        from repro.apps import all_applications

        app = {a.name: a for a in all_applications()}[name]
        assert self._check_space(app, monkeypatch) >= 20

    def test_sad_at_a_stride(self, monkeypatch):
        from hypothesis import settings

        from repro.apps import SumOfAbsoluteDifferences

        deep = settings.default.max_examples >= 1000
        checked = self._check_space(SumOfAbsoluteDifferences(), monkeypatch,
                                    stride=1 if deep else SAD_STRIDE)
        assert checked >= 20
