"""Pool-worker telemetry: exact aggregation and loud degradation.

PR 2 left a documented hole: with ``workers > 1`` the pool's forked
processes kept their simulator-cache counters to themselves, so
``EngineStats`` silently undercounted (usually to ~0) in exactly the
pooled configuration CI runs.  Workers now return a counter *delta*
with every result and the engine aggregates them — these tests pin:

* pooled-vs-serial equivalence — same workload, ``workers=1`` versus
  ``workers=2``, identical fingerprint/wave/event counters;
* worker-crash recovery — a task that keeps killing its worker burns
  its retry budget in the pool, runs once in-process, and every other
  result (and counter delta) is kept: nothing is re-simulated, the
  crashes are counted, and the pool survives for later batches;
* scheduler-creation failure — loud fallback, not a silent serial run;
* ``resolve_workers`` — actionable errors for malformed
  ``REPRO_WORKERS``.
"""

import logging
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.tuning import (
    ExecutionEngine,
    SweepScheduler,
    cartesian,
    resolve_workers,
)

pytestmark = pytest.mark.fast

#: the EngineStats fields mirrored from simulator-cache counters
COUNTER_FIELDS = (
    "fingerprint_resource_hits",
    "fingerprint_trace_hits",
    "fingerprint_sm_hits",
    "waves_simulated",
    "blocks_replayed",
    "blocks_extrapolated",
    "events_replayed",
    "events_skipped",
)


def _counter_stats(stats):
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


class FakeSimCache:
    """Counter-only stand-in for ``repro.sim.fingerprint.SimulationCache``."""

    def __init__(self):
        self.values = {name: 0 for name in COUNTER_FIELDS}

    def counters(self):
        return dict(self.values)

    def add(self, name, amount):
        self.values[name] += amount


class CountingApp:
    """Synthetic app whose simulate records config-deterministic work
    on a fake simulator cache — the work each config contributes is
    independent of which process (or cache state) runs it, so the
    aggregated totals must be identical for any worker partition.

    Module-level class so instances survive pickling into pool workers.
    """

    def __init__(self):
        self.configs = cartesian({"e": [1, 2, 3, 4], "u": [1, 2, 3, 4]})
        self.sim_cache = FakeSimCache()

    def expected_counters(self, configs):
        totals = {name: 0 for name in COUNTER_FIELDS}
        for config in configs:
            e, u = config["e"], config["u"]
            totals["waves_simulated"] += e
            totals["blocks_replayed"] += e * 3
            totals["blocks_extrapolated"] += u
            totals["events_replayed"] += e * u * 10
            totals["events_skipped"] += e * u * 7
            if e == 1:
                totals["fingerprint_trace_hits"] += 1
        return totals

    def evaluate(self, config):
        return None

    def simulate(self, config):
        e, u = config["e"], config["u"]
        self.sim_cache.add("waves_simulated", e)
        self.sim_cache.add("blocks_replayed", e * 3)
        self.sim_cache.add("blocks_extrapolated", u)
        self.sim_cache.add("events_replayed", e * u * 10)
        self.sim_cache.add("events_skipped", e * u * 7)
        if e == 1:
            self.sim_cache.add("fingerprint_trace_hits", 1)
        return 1.0 / (e + u)


class PoisonApp(CountingApp):
    """Kills its pool worker on the last configuration; harmless when
    the same configuration is simulated in the parent process."""

    def simulate(self, config):
        if (config["e"] == 4 and config["u"] == 4
                and multiprocessing.parent_process() is not None):
            os._exit(1)
        return super().simulate(config)


class TestPooledTelemetryEquivalence:
    def test_synthetic_workload_counters_bit_identical(self):
        serial_app = CountingApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1, sim_cache=serial_app.sim_cache) as serial:
            serial_seconds = serial.seconds_for(serial_app.configs)

        pooled_app = CountingApp()
        with ExecutionEngine(pooled_app.evaluate, pooled_app.simulate,
                             workers=2, sim_cache=pooled_app.sim_cache) as pooled:
            pooled_seconds = pooled.seconds_for(pooled_app.configs)

        assert pooled_seconds == serial_seconds
        expected = serial_app.expected_counters(serial_app.configs)
        assert _counter_stats(serial.stats) == expected
        assert _counter_stats(pooled.stats) == expected
        # The parent-process cache saw none of the pooled work — the
        # exact totals above came entirely from worker deltas.
        assert pooled_app.sim_cache.counters()["events_replayed"] == 0
        assert pooled.stats.pool_batches == 1
        assert pooled.stats.pool_fallbacks == 0

    def test_real_app_counters_bit_identical(self):
        """MatMul test instance, configs chosen (self-validatingly) to
        have pairwise-distinct fingerprints, so per-config simulator
        work is partition-independent and the pooled counters must
        equal the serial ones exactly."""
        from repro.apps import MatMul
        from repro.arch import LaunchError
        from repro.sim.fingerprint import kernel_fingerprint

        scout = MatMul().test_instance()
        chosen, seen = [], set()
        for config in scout.space():
            try:
                scout.evaluate(config)
            except LaunchError:
                continue
            fingerprint = kernel_fingerprint(
                scout.kernel(config), scout.sim_config(config)
            )
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            chosen.append(config)
            if len(chosen) == 6:
                break
        assert len(chosen) > 1

        serial_app = MatMul().test_instance()
        with serial_app.search_engine(workers=1) as serial:
            serial_seconds = serial.seconds_for(chosen)

        pooled_app = MatMul().test_instance()
        with pooled_app.search_engine(workers=2) as pooled:
            pooled_seconds = pooled.seconds_for(chosen)

        assert pooled_seconds == serial_seconds
        assert _counter_stats(pooled.stats) == _counter_stats(serial.stats)
        assert pooled.stats.events_replayed > 0
        assert pooled.stats.events_skipped > 0
        assert pooled.stats.waves_simulated > 0
        # ...and again: the parent cache did none of that work.
        assert pooled_app.sim_cache.counters()["events_replayed"] == 0


class TestStatsReadsDuringASweep:
    def test_snapshots_while_a_pooled_sweep_counts(self):
        """``/metrics`` and the service fast lane read ``engine.stats``
        on the event loop while the executor thread counts; a read must
        never race a registry that changes size."""
        app = CountingApp()
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExecutionEngine(app.evaluate, app.simulate, workers=2,
                                 sim_cache=app.sim_cache) as engine:
                names = list(engine.counts)

                def sweep():
                    try:
                        engine.seconds_for(app.configs)
                    except Exception as error:  # reported below
                        failures.append(error)

                thread = threading.Thread(target=sweep)
                thread.start()
                deadline = time.monotonic() + 60
                snapshots = 0
                while ((thread.is_alive() or snapshots == 0)
                       and time.monotonic() < deadline):
                    engine.stats.as_dict()
                    snapshots += 1
                thread.join(timeout=1)
                assert not thread.is_alive()
                # Worker deltas merged into the names declared up front.
                assert list(engine.counts) == names
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert _counter_stats(engine.stats) == app.expected_counters(app.configs)


class TestWorkerCrashRecovery:
    def test_crashing_task_recovers_exact_and_loud(self, caplog):
        app = PoisonApp()
        with caplog.at_level(logging.WARNING):
            with ExecutionEngine(app.evaluate, app.simulate, workers=2,
                                 sim_cache=app.sim_cache) as engine:
                seconds = engine.seconds_for(app.configs)

        # Every configuration still got measured — the poison config
        # exhausted its pool retries and ran in the parent, where the
        # poison is inert.
        assert seconds == [1.0 / (c["e"] + c["u"]) for c in app.configs]
        # Each config was recorded exactly once across pool + fallback.
        assert engine.stats.simulations == len(app.configs)

        # The scheduler saw every injected crash: one per attempt of
        # the retry budget, after which the task fell back to serial.
        assert engine.stats.worker_crashes == 3
        assert engine.stats.task_retries == 2
        assert engine.stats.serial_fallback_tasks == 1
        assert engine.stats.fault_recoveries == 3
        # The crashes never broke the pool itself.
        assert engine.stats.pool_fallbacks == 0
        assert "crashes=3" in engine.stats.summary()
        assert any("running them in-process" in r.getMessage()
                   for r in caplog.records)

        # Telemetry stays exact through the recovery: deltas from
        # pooled results, parent-cache counters for the in-process
        # fallback (crashed attempts die before touching the cache).
        assert _counter_stats(engine.stats) == app.expected_counters(app.configs)

    def test_pool_survives_crashes_for_later_batches(self):
        app = PoisonApp()
        with ExecutionEngine(app.evaluate, app.simulate, workers=2) as engine:
            engine.seconds_for(app.configs)
            assert engine.stats.pool_fallbacks == 0
            # A later batch reuses the same (still-healthy) scheduler.
            engine._seconds.clear()
            engine.seconds_for(app.configs[:4])
            assert engine.stats.pool_fallbacks == 0
            assert engine._scheduler is not None
            assert engine._scheduler.active_workers >= 1


class TestPoolCreationFailure:
    def test_creation_failure_is_loud_and_counted(self, monkeypatch, caplog):
        def refuse(self):
            raise OSError("no forks today")

        monkeypatch.setattr(SweepScheduler, "start", refuse)
        app = CountingApp()
        with caplog.at_level(logging.WARNING, logger="repro.tuning.engine"):
            with ExecutionEngine(app.evaluate, app.simulate, workers=4,
                                 sim_cache=app.sim_cache) as engine:
                seconds = engine.seconds_for(app.configs)

        assert len(seconds) == len(app.configs)
        assert engine.stats.pool_fallbacks == 1
        assert "could not start" in engine.stats.pool_fallback_reason
        assert "no forks today" in engine.stats.pool_fallback_reason
        assert any("falling back" in r.getMessage() for r in caplog.records)
        # The serial fallback still reports exact telemetry.
        assert _counter_stats(engine.stats) == app.expected_counters(app.configs)


class TestResolveWorkersDiagnostics:
    def test_malformed_env_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(ValueError, match=r"REPRO_WORKERS='four'"):
            resolve_workers(None)

    def test_negative_explicit_count_clamped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.tuning.engine"):
            assert resolve_workers(-2) == 1
        assert any("clamping to 1" in r.getMessage() for r in caplog.records)

    def test_negative_env_count_clamped_with_warning(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with caplog.at_level(logging.WARNING, logger="repro.tuning.engine"):
            assert resolve_workers(None) == 1
        assert any("REPRO_WORKERS" in r.getMessage() for r in caplog.records)
