"""ExecutionEngine regression suite: caching, parallelism, resume.

The engine's contract is "one static pass, at most one simulation per
configuration, regardless of strategies or workers" — every test here
pins a piece of that contract with spy callables over a synthetic
space (fast, fully controlled, picklable for the process pool); the
resume cases use the smallest real application, since only an
application supplies the store key.
"""

import json
import math

import pytest

from repro.apps import CoulombicPotential
from repro.arch import LaunchError
from repro.metrics.model import MetricReport
from repro.store import CONFIG_TIER, ResultStore
from repro.tuning import (
    ExecutionEngine,
    cartesian,
    config_key,
    full_exploration,
    pareto_cluster_search,
    pareto_search,
    random_search,
    resolve_workers,
)

pytestmark = pytest.mark.fast


def _report(efficiency, utilization):
    report = MetricReport.__new__(MetricReport)
    object.__setattr__(report, "efficiency", float(efficiency))
    object.__setattr__(report, "utilization", float(utilization))
    return report


class SyntheticApp:
    """time = 1/(eff + util); one config invalid; calls are counted.

    Module-level class so instances (and their bound methods) survive
    pickling into process-pool workers.
    """

    def __init__(self):
        self.configs = cartesian({"e": [1, 2, 3, 4], "u": [1, 2, 3, 4]})
        self.evaluated = []
        self.simulated = []

    def evaluate(self, config):
        self.evaluated.append(config)
        if config["e"] == 4 and config["u"] == 4:
            raise LaunchError("synthetic register overflow")
        return _report(config["e"], config["u"])

    def simulate(self, config):
        self.simulated.append(config)
        return 1.0 / (config["e"] + config["u"])


@pytest.fixture
def app():
    return SyntheticApp()


@pytest.fixture
def engine(app):
    with ExecutionEngine(app.evaluate, app.simulate) as engine:
        yield engine


class TestStaticCache:
    def test_single_underlying_pass(self, app, engine):
        first = engine.evaluate_all(app.configs)
        second = engine.evaluate_all(app.configs)
        assert len(app.evaluated) == 16
        assert engine.stats.static_evaluations == 16
        assert engine.stats.static_cache_hits == 16
        assert [e.is_valid for e in first] == [e.is_valid for e in second]

    def test_invalids_cached_too(self, app, engine):
        for _ in range(3):
            entries = engine.evaluate_all(app.configs)
        invalid = [e for e in entries if not e.is_valid]
        assert len(invalid) == 1
        assert "register overflow" in invalid[0].invalid_reason
        assert len(app.evaluated) == 16

    def test_fresh_wrappers_per_call(self, app, engine):
        first = engine.evaluate_all(app.configs)
        second = engine.evaluate_all(app.configs)
        first[0].seconds = 123.0
        assert second[0].seconds is None


class TestSimulationCache:
    def test_at_most_one_simulation_per_config(self, app, engine):
        entries = engine.evaluate_all(app.configs)
        valid = [e for e in entries if e.is_valid]
        engine.time_entries(valid)
        engine.time_entries(valid)
        engine.time_entries(valid[:5])
        assert len(app.simulated) == 15
        assert engine.stats.simulations == 15
        assert engine.stats.simulation_cache_hits == 20

    def test_deterministic_order(self, app, engine):
        seconds = engine.seconds_for(list(app.configs[:4]))
        again = engine.seconds_for(list(reversed(app.configs[:4])))
        assert seconds == list(reversed(again))

    def test_duplicates_in_one_request_simulated_once(self, app, engine):
        config = app.configs[0]
        seconds = engine.seconds_for([config, config, config])
        assert len(app.simulated) == 1
        assert seconds[0] == seconds[1] == seconds[2]


class TestSharedEngineAcrossStrategies:
    def test_no_duplicate_work_across_strategies(self, app, engine):
        full_exploration(app.configs, engine=engine)
        pareto_search(app.configs, engine=engine)
        pareto_cluster_search(app.configs, engine=engine)
        random_search(app.configs, sample_size=5, seed=1, engine=engine)
        assert len(app.evaluated) == 16           # one static pass
        assert len(app.simulated) == 15           # nothing measured twice
        assert engine.stats.simulation_cache_hits > 0

    def test_shared_engine_matches_private_engines(self, app, engine):
        shared_full = full_exploration(app.configs, engine=engine)
        shared_pareto = pareto_search(app.configs, engine=engine)
        solo = SyntheticApp()
        solo_full = full_exploration(solo.configs, solo.evaluate, solo.simulate)
        solo_pareto = pareto_search(solo.configs, solo.evaluate, solo.simulate)
        assert [e.seconds for e in shared_full.timed] == [
            e.seconds for e in solo_full.timed
        ]
        assert [dict(e.config) for e in shared_pareto.timed] == [
            dict(e.config) for e in solo_pareto.timed
        ]
        assert shared_full.measured_seconds == solo_full.measured_seconds


class TestParallelWorkers:
    def test_workers_bit_identical_to_serial(self):
        serial_app = SyntheticApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1) as serial:
            serial_result = full_exploration(serial_app.configs, engine=serial)

        parallel_app = SyntheticApp()
        with ExecutionEngine(parallel_app.evaluate, parallel_app.simulate,
                             workers=4) as parallel:
            parallel_result = full_exploration(parallel_app.configs,
                                               engine=parallel)

        assert [dict(e.config) for e in parallel_result.timed] == [
            dict(e.config) for e in serial_result.timed
        ]
        assert [e.seconds for e in parallel_result.timed] == [
            e.seconds for e in serial_result.timed
        ]
        assert parallel_result.best.config == serial_result.best.config
        assert parallel_result.best.seconds == serial_result.best.seconds
        assert parallel_result.measured_seconds == serial_result.measured_seconds

    def test_pool_reported_in_stats(self):
        app = SyntheticApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=2) as engine:
            entries = engine.evaluate_all(app.configs)
            engine.time_entries([e for e in entries if e.is_valid])
            assert engine.stats.workers == 2
            assert engine.stats.simulations == 15

    def test_single_missing_config_stays_in_process(self):
        app = SyntheticApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=4) as engine:
            engine.seconds_for([app.configs[0]])
            # one missing config is not worth a pool round-trip; the
            # parent-process spy observed the call directly
            assert app.simulated == [app.configs[0]]

    def test_trace_groups_share_one_task_in_request_order(self):
        app = SyntheticApp()
        engine = ExecutionEngine(
            app.evaluate, app.simulate,
            group_key=lambda config: config["e"] if config["e"] < 3 else None,
        )
        reordered = app.configs[::-1]
        assert engine._tasks(reordered) == (
            [[config] for config in reordered if config["e"] >= 3]
            + [[config for config in reordered if config["e"] == e]
               for e in (2, 1)]
        )

    def test_grouped_tasks_pool_like_singles(self):
        def key(config):
            return config["e"] if config["e"] < 3 else None

        serial_app = SyntheticApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1, group_key=key) as serial:
            expected = serial.seconds_for(serial_app.configs)
        pooled_app = SyntheticApp()
        with ExecutionEngine(pooled_app.evaluate, pooled_app.simulate,
                             workers=2, group_key=key) as pooled:
            assert pooled.seconds_for(pooled_app.configs) == expected
            # groups and singles share one batch, all of it measured in
            # the workers (the parent-process spy saw nothing)
            assert pooled.stats.pool_batches == 1
            assert pooled.stats.simulations == len(pooled_app.configs)
            assert pooled_app.simulated == []

    def test_single_task_stays_in_process(self):
        app = SyntheticApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=4,
                             group_key=lambda config: "one") as engine:
            engine.seconds_for(app.configs)
            assert engine.stats.pool_batches == 0
            assert app.simulated == list(app.configs)

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(None) == 7
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 1


class TestCheckpoint:
    """Resume through the result store's ``config`` tier, which keeps
    every finished configuration of a sweep (a real application: an
    engine over bare callables has no result key and no config tier).
    """

    def test_resume_equals_cold_run(self, tmp_path):
        root = str(tmp_path / "store")
        cold_app = CoulombicPotential().test_instance()
        configs = cold_app.space().configurations()
        with cold_app.search_engine(store=root) as cold:
            cold_result = full_exploration(configs, engine=cold)

        warm_app = CoulombicPotential().test_instance()
        with warm_app.search_engine(store=root) as warm:
            warm_result = full_exploration(configs, engine=warm)
            assert warm.stats.simulations == 0       # zero re-simulations
            assert warm.stats.static_evaluations == 0
            assert warm.stats.store_hits == len(configs)
        assert warm_app._kernel_cache == {}          # nothing was built
        assert [e.seconds for e in warm_result.timed] == [
            e.seconds for e in cold_result.timed
        ]
        assert warm_result.best.config == cold_result.best.config
        assert warm_result.measured_seconds == cold_result.measured_seconds

    def test_interrupt_mid_batch_preserves_progress(self, tmp_path):
        app = CoulombicPotential().test_instance()
        configs = app.space().configurations()
        root = str(tmp_path / "store")
        measured = []

        def exploding_simulate(config):
            if len(measured) == 7:
                raise KeyboardInterrupt
            measured.append(config)
            return type(app).simulate(app, config)

        app.simulate = exploding_simulate
        with pytest.raises(KeyboardInterrupt):
            with app.search_engine(store=root) as engine:
                entries = engine.evaluate_all(configs)
                engine.time_entries([e for e in entries if e.is_valid])
        store = ResultStore(root)
        stored = store.load_many(CONFIG_TIER, store.list_keys(CONFIG_TIER))
        timed = [s for _, s in stored.values() if s is not None]
        assert len(timed) == 7  # every finished measurement survived

        resumed = CoulombicPotential().test_instance()
        with resumed.search_engine(store=root) as engine:
            entries = engine.evaluate_all(configs)
            engine.time_entries([e for e in entries if e.is_valid])
            assert engine.stats.static_evaluations == 0
            assert engine.stats.simulations == len(configs) - 7

    def test_partial_checkpoint_fills_the_gap(self, tmp_path):
        app = CoulombicPotential().test_instance()
        configs = app.space().configurations()
        root = str(tmp_path / "store")
        with app.search_engine(store=root) as engine:
            engine.seconds_for(configs[:6])  # times only, then "killed"

        resumed = CoulombicPotential().test_instance()
        with resumed.search_engine(store=root) as engine:
            entries = engine.evaluate_all(configs)
            seconds = engine.seconds_for(configs)
            assert engine.stats.simulations == len(configs) - 6
            assert engine.stats.static_evaluations == len(configs)
        fresh = CoulombicPotential().test_instance()
        with fresh.search_engine() as engine:
            assert engine.seconds_for(configs) == seconds
            assert [e.metrics for e in engine.evaluate_all(configs)] == [
                e.metrics for e in entries
            ]

    def test_config_key_stable_and_order_free(self):
        from repro.tuning import Configuration

        a = Configuration({"x": 1, "y": True})
        b = Configuration({"y": True, "x": 1})
        assert config_key(a) == config_key(b)
        assert json.loads(config_key(a)) == {"x": 1, "y": True}


class TestSearchResultGuards:
    def test_space_reduction_nan_for_all_invalid_space(self):
        from repro.tuning import EvaluatedConfig, SearchResult

        entries = [
            EvaluatedConfig(config=c, invalid_reason="no fit")
            for c in cartesian({"e": [1, 2]})
        ]
        result = SearchResult(
            strategy="exhaustive", evaluated=entries, timed=[],
            best=entries[0], measured_seconds=0.0,
        )
        assert math.isnan(result.space_reduction)

    def test_random_search_records_requested_sample_size(self, app, caplog):
        with caplog.at_level("WARNING", logger="repro.tuning.search"):
            result = random_search(app.configs, app.evaluate, app.simulate,
                                   sample_size=999, seed=0)
        assert result.requested_sample_size == 999
        assert result.timed_count == 15
        assert result.sample_shortfall == 984
        assert any("exceeds the valid space" in r.message for r in caplog.records)

    def test_random_search_exact_sample_not_logged(self, app, caplog):
        with caplog.at_level("WARNING", logger="repro.tuning.search"):
            result = random_search(app.configs, app.evaluate, app.simulate,
                                   sample_size=5, seed=0)
        assert result.requested_sample_size == 5
        assert result.sample_shortfall == 0
        assert not caplog.records
