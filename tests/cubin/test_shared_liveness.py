"""One liveness analysis per kernel, checked against the old analysis.

``cubin_info`` runs ``analyze_liveness`` once and hands it to both the
allocator and the pipelining estimate; ``pipeline_register_pressure``
returns 0 for a barrier-free kernel before any analysis; and the loop
widening no longer rescans a register's accesses per loop.  The
oracles in tests/cubin/oracles.py are the analysis as it was before.
"""

import pytest

from repro.apps import all_applications
from repro.cubin import (
    analyze_liveness,
    cubin_info,
    pipeline_register_pressure,
)
from repro.cubin import liveness as liveness_module
from repro.cubin import resources as resources_module
from repro.ir import DataType, Dim3, KernelBuilder, VirtualRegister
from repro.ir.builder import TID_X
from tests.conftest import build_tiled_matmul
from tests.cubin.oracles import (
    analyze_liveness_reference,
    cubin_registers_reference,
    pipeline_register_pressure_reference,
)


@pytest.fixture(scope="module")
def app_kernels():
    """Every configuration's kernel of the four apps' test instances."""
    kernels = []
    for app in all_applications():
        small = app.test_instance()
        kernels.extend(small.kernel(config) for config in small.space())
    return kernels


def _loop_shapes():
    """Small kernels for the widening rules the app kernels rarely hit:
    a register read before any write, inside a loop that also writes
    it (carried with every access inside the loop), nested loops, and
    a register touched before and after a loop but not inside it."""
    f32 = DataType.F32

    def builder():
        return KernelBuilder("k", block_dim=Dim3(32), grid_dim=Dim3(1))

    b = builder()
    x = b.param_ptr("x", f32)
    carried = VirtualRegister("carried", f32)
    with b.loop(0, 4):
        b.add(carried, 1.0, dest=carried)
        b.st(x, TID_X, carried)
    uninitialized = b.finish()

    b = builder()
    x = b.param_ptr("x", f32)
    around = b.ld(x, TID_X)
    with b.loop(0, 4):
        acc = b.mov(0.0)
        with b.loop(0, 3):
            value = b.ld(x, TID_X)
            b.add(acc, value, dest=acc)
        inner_carried = VirtualRegister("inner", f32)
        with b.loop(0, 2):
            b.mul(inner_carried, 2.0, dest=inner_carried)
        b.st(x, TID_X, b.add(acc, inner_carried))
    b.st(x, TID_X, around)
    nested = b.finish()
    return [uninitialized, nested]


def _count_analyses(monkeypatch):
    calls = []
    real = liveness_module.analyze_liveness

    def counting(kernel, *args, **kwargs):
        calls.append(kernel)
        return real(kernel, *args, **kwargs)

    for module in (liveness_module, resources_module):
        monkeypatch.setattr(module, "analyze_liveness", counting)
    return calls


class TestOneAnalysisPerKernel:
    def test_cubin_info_analyzes_each_kernel_once(self, monkeypatch, app_kernels):
        calls = _count_analyses(monkeypatch)
        for kernel in app_kernels:
            before = len(calls)
            cubin_info(kernel)
            assert calls[before:] == [kernel]

    def test_barrier_free_kernel_needs_no_analysis(self, monkeypatch, app_kernels):
        calls = _count_analyses(monkeypatch)
        barrier_free = [
            kernel for kernel in app_kernels
            if not analyze_liveness_reference(kernel).barrier_positions
        ]
        assert barrier_free
        for kernel in barrier_free:
            assert pipeline_register_pressure(kernel) == 0
        assert calls == []

    def test_barrier_kernel_still_analyzed(self, monkeypatch):
        calls = _count_analyses(monkeypatch)
        kernel = build_tiled_matmul()
        assert pipeline_register_pressure(kernel) == 0
        assert calls == [kernel]


class TestAgainstReferenceAnalysis:
    def test_register_counts_match(self, app_kernels):
        pipelined = 0
        for kernel in app_kernels:
            assert cubin_info(kernel).registers_per_thread == (
                cubin_registers_reference(kernel)
            ), kernel.name
            pressure = pipeline_register_pressure(kernel)
            assert pressure == pipeline_register_pressure_reference(kernel)
            pipelined += pressure > 0
        # The pipelining model is exercised, not only short-circuited.
        assert pipelined > 0

    def test_carried_register_spans_loop_holding_every_access(self):
        kernel = _loop_shapes()[0]
        (loop,) = analyze_liveness(kernel).loops
        (interval,) = [
            iv for iv in analyze_liveness(kernel).intervals
            if iv.register.name == "carried"
        ]
        assert (interval.start, interval.end) == loop

    @pytest.mark.parametrize("include_predicates", [False, True])
    def test_intervals_and_structure_match(self, app_kernels, include_predicates):
        for kernel in app_kernels + _loop_shapes():
            info = analyze_liveness(kernel, include_predicates)
            reference = analyze_liveness_reference(kernel, include_predicates)
            assert info.intervals == reference.intervals, kernel.name
            assert info.loops == reference.loops
            assert info.barrier_positions == reference.barrier_positions
            for register, defs in reference.defs_inside_loops.items():
                assert info.def_positions[register] == defs
