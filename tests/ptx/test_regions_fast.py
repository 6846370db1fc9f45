"""Loop-compressed region counting vs. the expansion oracle.

``count_regions`` extrapolates loop iterations once the region state
machine's iteration-entry state recurs; these tests pin it bit-identical
to ``count_regions_reference`` (feed the fully expanded stream) across
the constructs that drive the state machine — dependent and independent
load groups, barriers, SFU blocking, divergence — and across real
application kernels, including the expansion safety cap.
"""

import pytest

from repro.ir import CmpOp, DataType, Dim3, KernelBuilder
from repro.ir.builder import TID_X
from repro.ptx import count_regions
from tests.ptx.oracles import count_regions_reference

F32 = DataType.F32

pytestmark = pytest.mark.fast


def builder():
    return KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))


def assert_matches_reference(kernel):
    assert count_regions(kernel) == count_regions_reference(kernel)


class TestEdgeCases:
    def test_empty_body(self):
        assert_matches_reference(builder().finish())

    def test_zero_trip_loop(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 0):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
        assert_matches_reference(b.finish())

    def test_single_trip_loop(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 1):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
        assert_matches_reference(b.finish())

    def test_dependent_loads_cycle(self):
        # Each iteration opens a group and immediately closes it.
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 100):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, b.add(v, 1.0))
        kernel = b.finish()
        assert_matches_reference(kernel)
        assert count_regions(kernel) == 100 + 1

    def test_independent_loads_merge_across_iterations(self):
        # No use of the loaded values inside the loop: the open group
        # persists across iterations, so later iterations add no event.
        b = builder()
        x = b.param_ptr("x", F32)
        y = b.param_ptr("y", F32)
        acc = b.mov(0.0)
        with b.loop(0, 50):
            b.ld(x, TID_X)
            b.ld(y, TID_X)
        b.st(x, TID_X, acc)
        assert_matches_reference(b.finish())

    def test_barrier_in_loop(self):
        b = builder()
        b.shared("s", F32, (32,))
        x = b.param_ptr("x", F32)
        with b.loop(0, 37):
            v = b.ld(x, TID_X)
            b.bar()
            b.st(x, TID_X, v)
            b.bar()
        assert_matches_reference(b.finish())

    def test_nested_loops(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 12):
            with b.loop(0, 8):
                v = b.ld(x, TID_X)
                b.st(x, TID_X, v)
        assert_matches_reference(b.finish())

    def test_divergent_if_in_loop(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 20):
            pred = b.setp(CmpOp.LT, TID_X, 16)
            with b.if_(pred, taken_fraction=0.5) as branch:
                v = b.ld(x, TID_X)
                b.st(x, TID_X, v)
            with branch.orelse():
                w = b.ld(x, TID_X, offset=1)
                b.st(x, TID_X, w, offset=1)
        assert_matches_reference(b.finish())

    def test_fully_biased_ifs(self):
        for fraction in (0.0, 1.0):
            b = builder()
            x = b.param_ptr("x", F32)
            pred = b.setp(CmpOp.LT, TID_X, 16)
            with b.loop(0, 9):
                with b.if_(pred, taken_fraction=fraction) as branch:
                    v = b.ld(x, TID_X)
                    b.st(x, TID_X, v)
                with branch.orelse():
                    b.add(1.0, 2.0)
            assert_matches_reference(b.finish())

    def test_sfu_blocks_when_nothing_longer(self):
        # No long-latency access anywhere: every SFU op is an event.
        b = builder()
        x = b.param_ptr("x", F32)
        acc = b.mov(0.0)
        with b.loop(0, 25):
            acc = b.add(acc, b.sin(acc))
        b.st(x, TID_X, acc)
        kernel = b.finish()
        assert_matches_reference(kernel)
        assert count_regions(kernel) == 25 + 1

    def test_sfu_ignored_with_longer_latency_present(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 25):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, b.sin(v))
        assert_matches_reference(b.finish())

    def test_long_loop_extrapolates_exactly(self):
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 10_000):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, b.add(v, 1.0))
        kernel = b.finish()
        assert count_regions(kernel) == 10_000 + 1
        # (the reference would expand 60k statements here; still cheap
        # enough to pin the equivalence directly)
        assert_matches_reference(kernel)


class TestExpansionCap:
    def test_overflow_raises_like_reference(self, monkeypatch):
        monkeypatch.setattr(
            "repro.ptx.analysis.MAX_EXPANDED_INSTRUCTIONS", 500
        )
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 1_000):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
        kernel = b.finish()
        with pytest.raises(OverflowError) as fast:
            count_regions(kernel)
        with pytest.raises(OverflowError) as reference:
            count_regions_reference(kernel)
        assert str(fast.value) == str(reference.value)

    def test_below_cap_still_counts(self, monkeypatch):
        monkeypatch.setattr(
            "repro.ptx.analysis.MAX_EXPANDED_INSTRUCTIONS", 500
        )
        b = builder()
        x = b.param_ptr("x", F32)
        with b.loop(0, 50):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
        assert_matches_reference(b.finish())


class TestApplicationKernels:
    def test_app_kernels_bit_identical(self):
        from repro.apps import all_applications

        checked = 0
        for app in all_applications():
            small = app.test_instance()
            configs = list(small.space())
            step = max(1, len(configs) // 6)
            for config in configs[::step]:
                try:
                    kernel = small.build_kernel(config)
                except Exception:
                    continue
                assert_matches_reference(kernel)
                checked += 1
        assert checked >= 15
