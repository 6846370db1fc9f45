"""The flat kernel view against the statement-tree walkers it replaced.

Every static consumer now reads :class:`repro.ptx.view.KernelView`
instead of walking the tree.  On generated kernels (tests/ir/kernels.py)
each must equal its tree oracle exactly: ``Instr`` and the mix (same
floats, same insertion order), traffic, ``Regions``, liveness and
register counts, the fingerprint, and the warp trace — segment for
segment — whose replay must also equal the reference replay of the
flat reference trace.

The default run draws hypothesis' default hundred kernels per
property; ``--hypothesis-profile=deep`` (registered in
tests/conftest.py, run nightly) draws two thousand.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import MriFhd
from repro.cubin import analyze_liveness, cubin_info
from repro.ir import DataType, Dim3, KernelBuilder, validate
from repro.ir.builder import TID_X
from repro.ptx import count_instructions, count_regions, memory_traffic
from repro.ptx.view import KernelView, ViewCache
from repro.sim import simulate_sm
from repro.sim.config import DEFAULT_SIM_CONFIG
from repro.sim.fingerprint import kernel_fingerprint
from repro.sim.trace import build_trace
from repro.tuning.search import full_exploration
from tests.cubin.oracles import analyze_liveness_reference, cubin_registers_reference
from tests.ir.kernels import structured_kernels
from tests.ptx.oracles import (
    count_instructions_reference,
    count_regions_reference,
    memory_traffic_reference,
)
from tests.sim.oracles import (
    build_trace_reference,
    build_trace_tree_reference,
    kernel_fingerprint_reference,
    simulate_sm_reference,
)

#: a config whose cost model touches every trace rule: uncoalesced
#: traffic, conflicted shared and constant accesses
CONFLICTED = dataclasses.replace(
    DEFAULT_SIM_CONFIG, shared_bank_conflict_ways=2, constant_conflict_ways=3,
)

REPLAY_FIELDS = ("cycles", "blocks_completed", "issue_busy_cycles",
                 "dram_bytes", "dram_busy_cycles")

_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestAgainstTreeWalkers:
    @_SETTINGS
    @given(structured_kernels())
    def test_every_consumer_equals_its_oracle(self, kernel):
        validate(kernel)
        view = KernelView(kernel)

        total, mix = count_instructions(kernel, view=view)
        reference_total, reference_mix = count_instructions_reference(kernel)
        assert total == reference_total
        assert list(mix.items()) == list(reference_mix.items())
        assert memory_traffic(kernel, view=view) == memory_traffic_reference(kernel)
        assert count_regions(kernel, view=view) == count_regions_reference(kernel)

        for include_predicates in (False, True):
            info = analyze_liveness(kernel, include_predicates, view=view)
            reference = analyze_liveness_reference(kernel, include_predicates)
            assert info.intervals == reference.intervals
            assert info.loops == reference.loops
            assert info.barrier_positions == reference.barrier_positions
            for register, defs in reference.defs_inside_loops.items():
                assert info.def_positions[register] == defs
        assert cubin_info(kernel, view=view).registers_per_thread == (
            cubin_registers_reference(kernel)
        )

        for config in (DEFAULT_SIM_CONFIG, CONFLICTED):
            assert kernel_fingerprint(kernel, config) == (
                kernel_fingerprint_reference(kernel, config)
            )
            assert build_trace(kernel, config, view=view) == (
                build_trace_tree_reference(kernel, config)
            )

    @_SETTINGS
    @given(structured_kernels(max_depth=2))
    def test_replay_of_view_trace_equals_reference_replay(self, kernel):
        trace = build_trace(kernel, DEFAULT_SIM_CONFIG)
        reference_trace = build_trace_reference(kernel, DEFAULT_SIM_CONFIG)
        assert len(trace) == len(reference_trace)
        assert trace.issue_slots == reference_trace.issue_slots
        replay = dict(warps_per_block=1, blocks_resident=2, total_blocks=3,
                      config=DEFAULT_SIM_CONFIG)
        optimized = simulate_sm(trace=trace, **replay)
        reference = simulate_sm_reference(reference_trace, **replay)
        for field in REPLAY_FIELDS:
            assert getattr(optimized, field) == getattr(reference, field), field


def _capped_kernel():
    b = KernelBuilder("capped", block_dim=Dim3(32), grid_dim=Dim3(1))
    x = b.param_ptr("x", DataType.F32)
    with b.loop(0, 40):
        with b.loop(0, 20):
            v = b.ld(x, TID_X)
            b.st(x, TID_X, v)
    return b.finish()


class TestExpansionCap:
    def test_cap_trips_on_both_sides(self, monkeypatch):
        monkeypatch.setattr("repro.ptx.analysis.MAX_EXPANDED_INSTRUCTIONS", 1000)
        kernel = _capped_kernel()
        with pytest.raises(OverflowError) as fast:
            count_regions(kernel)
        with pytest.raises(OverflowError) as reference:
            count_regions_reference(kernel)
        assert str(fast.value) == str(reference.value)


class TestViewLifetime:
    def test_views_are_never_pickled(self):
        with pytest.raises(TypeError):
            pickle.dumps(KernelView(_capped_kernel()))

    def test_a_bare_kernel_gets_a_fresh_view(self):
        kernel = _capped_kernel()
        before = count_regions(kernel)
        kernel.body.append(kernel.body[0])     # edit the body in place
        assert count_regions(kernel) == count_regions_reference(kernel)
        assert count_regions(kernel) != before

    def test_cache_shares_views_of_replaced_kernels(self):
        kernel = _capped_kernel()
        cache = ViewCache()
        split = dataclasses.replace(kernel, name="split", grid_dim=Dim3(7))
        assert cache.view(kernel) is cache.view(split)
        copied_params = dataclasses.replace(kernel, params=list(kernel.params))
        assert cache.view(copied_params) is not cache.view(kernel)
        assert len(cache) == 2

    def test_mri_fhd_linearizes_each_distinct_body_once(self, monkeypatch):
        built = []
        real = KernelView.__init__

        def counting(self, kernel):
            built.append(kernel)
            real(self, kernel)

        monkeypatch.setattr(KernelView, "__init__", counting)
        app = MriFhd()
        configs = list(app.space())
        with app.search_engine(workers=1) as engine:
            full_exploration(configs, engine=engine)
        bodies = {id(kernel.body) for kernel in built}
        assert len(built) == len(bodies) == 25
        assert len(app._views) == 25
