"""Pooled static stage: equivalence, recovery, and store resume.

The static stage fans out through the same process pool as the
measurement stage and persists its results in the result store's
``config`` tier.  These tests pin the contract:

* ``evaluate_all`` with ``workers=2`` is bit-identical to ``workers=1``
  — reports, invalid reasons, *and* the EngineStats counters (compile
  and fingerprint telemetry rides back as per-task deltas);
* a worker death mid-batch costs retries (counted exactly), not the
  pool: only the task that exhausts its budget runs in-process, and
  every configuration is evaluated exactly once;
* a store-backed sweep resumes its static results from disk (counted
  as store hits) without re-running ``evaluate``, and the resumed
  reports — and the Pareto subset computed from them — are
  bit-identical to the cold run's, invalid reasons included.
"""

import multiprocessing
import os

import pytest

from repro.arch import LaunchError
from repro.metrics.model import MetricReport
from repro.tuning import ExecutionEngine, cartesian, pareto_indices

pytestmark = pytest.mark.fast

#: every EngineStats counter that must be partition-independent
COMPARED_COUNTERS = (
    "static_evaluations",
    "static_cache_hits",
    "simulations",
    "simulation_cache_hits",
    "compile_hits",
    "compile_evaluations",
    "fingerprint_resource_hits",
    "fingerprint_trace_hits",
    "fingerprint_sm_hits",
    "waves_simulated",
    "blocks_replayed",
    "blocks_resident",
    "events_replayed",
    "events_skipped",
)


def _counter_stats(stats):
    return {name: getattr(stats, name) for name in COMPARED_COUNTERS}


def _report(efficiency, utilization):
    report = MetricReport.__new__(MetricReport)
    object.__setattr__(report, "efficiency", float(efficiency))
    object.__setattr__(report, "utilization", float(utilization))
    return report


class StaticApp:
    """Synthetic app with one invalid configuration; module-level so
    instances survive pickling into pool workers."""

    def __init__(self):
        self.configs = cartesian({"e": [1, 2, 3, 4], "u": [1, 2, 3, 4]})
        self.evaluated = []

    def evaluate(self, config):
        self.evaluated.append(config)
        if config["e"] == 4 and config["u"] == 4:
            raise LaunchError("synthetic register overflow")
        return _report(config["e"], config["u"])

    def simulate(self, config):
        return 1.0 / (config["e"] + config["u"])


class PoisonStaticApp(StaticApp):
    """Kills its pool worker on the last configuration; harmless when
    the same configuration is evaluated in the parent process."""

    def evaluate(self, config):
        if (config["e"] == 4 and config["u"] == 4
                and multiprocessing.parent_process() is not None):
            os._exit(1)
        return super().evaluate(config)


def _matmul_configs(count=8):
    """MatMul test-instance configs with pairwise-distinct kernel
    fingerprints, so per-config compile work is partition-independent
    and pooled counters must equal serial ones exactly."""
    from repro.apps import MatMul
    from repro.sim.fingerprint import kernel_fingerprint

    scout = MatMul().test_instance()
    chosen, seen = [], set()
    for config in scout.space():
        fingerprint = kernel_fingerprint(
            scout.kernel(config), scout.sim_config(config)
        )
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        chosen.append(config)
        if len(chosen) == count:
            break
    assert len(chosen) > 1
    return chosen


def _entry_key(entry):
    return (entry.metrics, entry.invalid_reason)


class TestPooledStaticEquivalence:
    def test_synthetic_entries_bit_identical(self):
        serial_app = StaticApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1) as serial:
            serial_entries = serial.evaluate_all(serial_app.configs)

        pooled_app = StaticApp()
        with ExecutionEngine(pooled_app.evaluate, pooled_app.simulate,
                             workers=2) as pooled:
            pooled_entries = pooled.evaluate_all(pooled_app.configs)

        assert [e.invalid_reason for e in pooled_entries] == [
            e.invalid_reason for e in serial_entries
        ]
        assert [
            (e.metrics.efficiency, e.metrics.utilization)
            for e in pooled_entries if e.is_valid
        ] == [
            (e.metrics.efficiency, e.metrics.utilization)
            for e in serial_entries if e.is_valid
        ]
        # The static work ran in the workers, not the parent process.
        assert pooled_app.evaluated == []
        assert serial_app.evaluated == list(serial_app.configs)
        assert _counter_stats(pooled.stats) == _counter_stats(serial.stats)
        assert pooled.stats.pool_batches == 1

    def test_repeat_requests_count_like_serial(self):
        serial_app, pooled_app = StaticApp(), StaticApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1) as serial, \
             ExecutionEngine(pooled_app.evaluate, pooled_app.simulate,
                             workers=2) as pooled:
            for engine, app in ((serial, serial_app), (pooled, pooled_app)):
                engine.evaluate_all(app.configs)
                engine.evaluate_all(app.configs[:5])
            assert _counter_stats(pooled.stats) == _counter_stats(serial.stats)
            assert serial.stats.static_evaluations == 16
            assert serial.stats.static_cache_hits == 5

    def test_real_app_reports_and_counters_bit_identical(self):
        from repro.apps import MatMul

        chosen = _matmul_configs()

        serial_app = MatMul().test_instance()
        with serial_app.search_engine(workers=1) as serial:
            serial_entries = serial.evaluate_all(chosen)

        pooled_app = MatMul().test_instance()
        with pooled_app.search_engine(workers=2) as pooled:
            pooled_entries = pooled.evaluate_all(chosen)

        assert [_entry_key(e) for e in pooled_entries] == [
            _entry_key(e) for e in serial_entries
        ]
        assert _counter_stats(pooled.stats) == _counter_stats(serial.stats)
        assert pooled.stats.compile_evaluations == len(chosen)
        # The parent-process compile tier saw none of the pooled work —
        # the counters above came entirely from worker deltas.
        assert pooled_app.sim_cache.counters()["compile_evaluations"] == 0

    def test_single_missing_config_stays_in_process(self):
        app = StaticApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=4) as engine:
            engine.evaluate_all([app.configs[0]])
            # one missing config is not worth a pool round-trip; the
            # parent-process spy observed the call directly
            assert app.evaluated == [app.configs[0]]


class TestStaticWorkerCrashRecovery:
    def test_crashing_task_recovers_exact_and_loud(self):
        app = PoisonStaticApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=2) as engine:
            entries = engine.evaluate_all(app.configs)
            # The crashes cost worker processes, never the pool itself.
            assert not engine._pool_broken
            assert engine._scheduler is not None
            assert engine._scheduler.active_workers >= 1

        assert len(entries) == len(app.configs)
        invalid = [e for e in entries if not e.is_valid]
        assert len(invalid) == 1
        assert "register overflow" in invalid[0].invalid_reason
        # The poison config burned its whole retry budget in workers,
        # then ran in-process, where its LaunchError is an ordinary
        # invalid verdict.
        assert engine.stats.worker_crashes == 3
        assert engine.stats.task_retries == 2
        assert engine.stats.serial_fallback_tasks == 1
        assert engine.stats.pool_fallbacks == 0
        # Every configuration was evaluated exactly once across
        # pool results + in-process fallback.
        assert engine.stats.static_evaluations == len(app.configs)
        assert engine.stats.static_cache_hits == 0


class TestStoreStatic:
    def test_resume_skips_static_stage_and_is_bit_identical(self, tmp_path):
        from repro.apps import MatMul

        chosen = _matmul_configs()
        root = str(tmp_path / "store")

        cold_app = MatMul().test_instance()
        with cold_app.search_engine(workers=1, store=root) as cold:
            cold_entries = cold.evaluate_all(chosen)
            cold.seconds_for(chosen)
            assert cold.stats.static_evaluations == len(chosen)

        warm_app = MatMul().test_instance()
        with warm_app.search_engine(workers=1, store=root) as warm:
            warm_entries = warm.evaluate_all(chosen)
            warm_seconds = warm.seconds_for(chosen)
            assert warm.stats.static_evaluations == 0
            assert warm.stats.simulations == 0
            # One config-tier read per configuration served both stages.
            assert warm.stats.store_hits == len(chosen)
            # evaluate() never ran: the app built no kernel at all
            assert warm_app.sim_cache.counters()["compile_evaluations"] == 0
            assert warm_app._kernel_cache == {}

        assert [_entry_key(e) for e in warm_entries] == [
            _entry_key(e) for e in cold_entries
        ]
        assert warm_seconds == [cold._seconds[c] for c in chosen]

        def front(entries):
            valid = [e for e in entries if e.is_valid]
            return pareto_indices(
                [(e.metrics.efficiency, e.metrics.utilization) for e in valid]
            )

        assert front(warm_entries) == front(cold_entries)

    def test_evaluate_config_claims_from_store(self, tmp_path):
        from repro.apps import MatMul

        root = str(tmp_path / "store")
        chosen = _matmul_configs(count=3)
        cold_app = MatMul().test_instance()
        with cold_app.search_engine(workers=1, store=root) as cold:
            cold.evaluate_all(chosen)

        warm_app = MatMul().test_instance()
        with warm_app.search_engine(workers=1, store=root) as warm:
            entry = warm.evaluate_config(chosen[0])
            assert entry.is_valid
            assert warm.store.counts["store_hits"] == 1
            assert warm.stats.static_evaluations == 0
            assert warm.stats.static_cache_hits == 0
            # A second request is an ordinary in-memory cache hit.
            warm.evaluate_config(chosen[0])
            assert warm.stats.static_cache_hits == 1
            assert warm.store.counts["store_hits"] == 1

    def test_invalid_reasons_survive_the_round_trip(self, tmp_path):
        from repro.apps import MatMul

        root = str(tmp_path / "store")
        cold_app = MatMul().test_instance()
        configs = cold_app.space().configurations()
        with cold_app.search_engine(store=root) as cold:
            cold_entries = cold.evaluate_all(configs)
        invalid = [e for e in cold_entries if not e.is_valid]
        assert len(invalid) == 2

        warm_app = MatMul().test_instance()
        with warm_app.search_engine(store=root) as warm:
            warm_entries = warm.evaluate_all(configs)
            assert warm.stats.static_evaluations == 0
        assert [_entry_key(e) for e in warm_entries] == [
            _entry_key(e) for e in cold_entries
        ]
        assert all("register" in e.invalid_reason
                   for e in warm_entries if not e.is_valid)
