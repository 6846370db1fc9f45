"""Telemetry plumbing: SMResult counters -> SimulationCache -> EngineStats."""

import dataclasses

from repro.apps.matmul import MatMul
from repro.apps.mri_fhd import MriFhd
from repro.sim import SimulationCache, WarpTrace, kernel_fingerprint, simulate_sm
from repro.sim.config import DEFAULT_SIM_CONFIG
from repro.sim.gpu import simulate_kernel
from repro.sim.trace import COMPUTE, LOAD, USE


def _fingerprint_hits(cache):
    counts = cache.counts
    return (counts["fingerprint_resource_hits"]
            + counts["fingerprint_trace_hits"]
            + counts["fingerprint_sm_hits"])


def _trace():
    events = [(LOAD, 0, (128.0, 250.0)), (USE, 0, 0), (COMPUTE, 10, 0)]
    return WarpTrace.from_events(events, issue_slots=10, dram_bytes=128.0)


class TestSMResultTelemetry:
    def test_waves_and_events_counted(self):
        result = simulate_sm(_trace(), warps_per_block=3, blocks_resident=2,
                             total_blocks=6, config=DEFAULT_SIM_CONFIG)
        assert result.waves_simulated == 3
        assert result.blocks_replayed == 6
        assert result.blocks_extrapolated == 0
        assert result.blocks_resident == 2
        assert result.waves_extrapolated == 0.0  # derived ratio
        # 3 dynamic events per warp, 3 warps per block, 6 blocks.
        assert result.events_replayed == 3 * 3 * 6


class TestSimulationCache:
    def test_fingerprint_excludes_name_and_grid(self):
        app = MatMul().test_instance()
        config = app.default_configuration()
        kernel = app.kernel(config)
        base = kernel_fingerprint(kernel, DEFAULT_SIM_CONFIG)
        renamed = dataclasses.replace(kernel, name="something_else")
        assert kernel_fingerprint(renamed, DEFAULT_SIM_CONFIG) == base
        regridded = dataclasses.replace(
            kernel, grid_dim=dataclasses.replace(kernel.grid_dim, x=3)
        )
        assert kernel_fingerprint(regridded, DEFAULT_SIM_CONFIG) == base
        # ...but the cost model is part of the identity.
        other_config = dataclasses.replace(
            DEFAULT_SIM_CONFIG, constant_conflict_ways=4
        )
        assert kernel_fingerprint(kernel, other_config) != base

    def test_repeat_simulation_hits_every_layer(self):
        app = MatMul().test_instance()
        config = app.default_configuration()
        kernel = app.kernel(config)
        cache = SimulationCache()
        first = simulate_kernel(kernel, DEFAULT_SIM_CONFIG, cache=cache)
        assert _fingerprint_hits(cache) == 0
        assert cache.counts["waves_simulated"] == first.sm.waves_simulated
        assert cache.counts["events_replayed"] == first.sm.events_replayed
        second = simulate_kernel(kernel, DEFAULT_SIM_CONFIG, cache=cache)
        assert second.seconds == first.seconds
        assert cache.counts["fingerprint_resource_hits"] == 1
        assert cache.counts["fingerprint_trace_hits"] == 1
        assert cache.counts["fingerprint_sm_hits"] == 1
        # Replay telemetry counts real work only — no growth on hits.
        assert cache.counts["events_replayed"] == first.sm.events_replayed

    def test_mri_invocation_variants_share_simulations(self):
        """The seven invocation splits of one (block, unroll) pair have
        identical per-launch kernels; the cache must collapse them."""
        app = MriFhd().test_instance()
        space = [c for c in app.space()]
        base = space[0]
        cluster = [c for c in space
                   if c["block"] == base["block"]
                   and c["unroll"] == base["unroll"]]
        assert len(cluster) > 1
        for config in cluster:
            app.simulate(config)
        assert app.sim_cache.counts["fingerprint_trace_hits"] == len(cluster) - 1

    def test_clear_resets_counters(self):
        cache = SimulationCache()
        app = MatMul().test_instance()
        kernel = app.kernel(app.default_configuration())
        simulate_kernel(kernel, DEFAULT_SIM_CONFIG, cache=cache)
        simulate_kernel(kernel, DEFAULT_SIM_CONFIG, cache=cache)
        assert _fingerprint_hits(cache) > 0
        cache.clear()
        assert _fingerprint_hits(cache) == 0
        assert cache.counters() == {
            "fingerprint_resource_hits": 0,
            "fingerprint_trace_hits": 0,
            "fingerprint_sm_hits": 0,
            "launch_hits": 0,
            "compile_hits": 0,
            "compile_evaluations": 0,
            "waves_simulated": 0,
            "blocks_replayed": 0,
            "blocks_extrapolated": 0,
            "blocks_resident": 0,
            "events_replayed": 0,
            "events_skipped": 0,
        }


class TestCompileTier:
    """Content-addressed sharing of whole static reports."""

    def test_repeat_evaluate_hits_compile_tier(self):
        app = MatMul().test_instance()
        config = app.default_configuration()
        first = app.evaluate(config)
        second = app.evaluate(config)
        assert second is first
        counters = app.sim_cache.counters()
        assert counters["compile_evaluations"] == 1
        assert counters["compile_hits"] == 1

    def test_mri_invocation_splits_share_compiles(self):
        """The seven invocation splits of one (block, unroll) pair have
        identical per-launch kernels; the compile tier must collapse
        them onto a single evaluation."""
        app = MriFhd().test_instance()
        space = [c for c in app.space()]
        base = space[0]
        cluster = [c for c in space
                   if c["block"] == base["block"]
                   and c["unroll"] == base["unroll"]]
        assert len(cluster) > 1
        reports = [app.evaluate(config) for config in cluster]
        counters = app.sim_cache.counters()
        assert counters["compile_evaluations"] == 1
        assert counters["compile_hits"] == len(cluster) - 1
        assert all(report == reports[0] for report in reports)

    def test_compile_hit_respecializes_grid_dependent_fields(self):
        """The fingerprint excludes the grid; on a hit, efficiency and
        threads are recomputed for this kernel's grid — bit-identical
        to a fresh evaluation."""
        from repro.apps.base import Application
        from repro.metrics.model import evaluate_kernel

        app = MatMul().test_instance()
        kernel = app.kernel(app.default_configuration())
        regridded = dataclasses.replace(
            kernel, grid_dim=dataclasses.replace(
                kernel.grid_dim, x=kernel.grid_dim.x * 2
            )
        )
        base = evaluate_kernel(kernel)
        specialized = Application._specialize_report(base, regridded)
        assert specialized == evaluate_kernel(regridded)
        assert specialized.threads == regridded.total_threads
        assert specialized.efficiency != base.efficiency

    def test_evaluate_seeds_resources_for_simulation(self):
        """The static stage's compile results thread into simulation:
        a simulate after evaluate reuses the stored ResourceUsage."""
        app = MatMul().test_instance()
        config = app.default_configuration()
        report = app.evaluate(config)
        app.simulate(config)
        assert app._resources_for(config) == report.resources


class TestEngineStatsSync:
    def test_engine_mirrors_cache_counters(self):
        app = MriFhd().test_instance()
        engine = app.search_engine()
        configs = [c for c in app.space()][:20]
        engine.seconds_for(configs)
        stats = engine.stats.as_dict()
        counters = app.sim_cache.counters()
        for name, value in counters.items():
            assert stats[name] == value
        assert stats["fingerprint_hits"] == _fingerprint_hits(app.sim_cache)
        assert stats["fingerprint_hits"] > 0
        assert stats["events_replayed"] > 0
        assert "fp_hits" in engine.stats.summary()

    def test_engine_without_sim_cache_keeps_zeroes(self):
        from repro.tuning.engine import ExecutionEngine

        engine = ExecutionEngine(lambda c: None, lambda c: 1.0)
        engine.seconds_for([])
        stats = engine.stats.as_dict()
        assert stats["fingerprint_hits"] == 0
        assert stats["events_replayed"] == 0
