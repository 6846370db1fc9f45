"""Chaos suite: the sweep scheduler under deterministic injected faults.

The acceptance bar for the fault-tolerance layer is not "it usually
recovers" — it is that under injected crashes, hangs, and worker
kills the sweep completes with results **bit-identical** to the serial
engine, and that the retry/timeout/quarantine counters in
``EngineStats`` match the injected :class:`FaultPlan` exactly.

Faults are applied only inside pool workers (the parent's serial path
never consults the plan), so the recovery invariant is structural:
whatever the pool fails to finish, the parent finishes with the same
deterministic callables.
"""

import logging

import pytest

from repro.obs.faults import Fault, FaultPlan, SIMULATE_STAGE
from repro.tuning import ExecutionEngine, RetryPolicy, cartesian
from repro.tuning.scheduler import SweepScheduler

pytestmark = pytest.mark.fast


class SweepApp:
    """Synthetic deterministic app; module-level so forked workers
    share the definitions cleanly."""

    def __init__(self):
        self.configs = cartesian({"e": [1, 2, 3, 4], "u": [1, 2, 3, 4]})

    def evaluate(self, config):
        return None

    def simulate(self, config):
        return 1.0 / (config["e"] + config["u"])

    def expected_seconds(self):
        return [1.0 / (c["e"] + c["u"]) for c in self.configs]


def _engine(app, plan, **policy_overrides):
    policy = RetryPolicy(
        timeout_seconds=policy_overrides.pop("timeout_seconds", 0.5),
        backoff_base=0.01,
        backoff_cap=0.05,
        **policy_overrides,
    )
    return ExecutionEngine(
        app.evaluate,
        app.simulate,
        workers=2,
        retry_policy=policy,
        fault_spec=plan.to_spec() if plan is not None else None,
    )


class TestMixedFaultRecovery:
    def test_counters_match_the_plan_exactly(self):
        """One raise, one kill, one hang — every recovery path in one
        sweep, each counted exactly once, zero serial fallbacks."""
        app = SweepApp()
        plan = FaultPlan(
            [
                Fault("raise", index=2),
                Fault("kill", index=5),
                Fault("hang", index=9, stage=SIMULATE_STAGE),
            ],
            hang_seconds=30.0,
        )
        injected = plan.expected(SIMULATE_STAGE, len(app.configs))
        assert injected == {"raise": [2], "hang": [9], "kill": [5]}

        # Quarantine threshold high enough that single failures never
        # retire a slot — this case is about per-task recovery.
        with _engine(app, plan, max_worker_failures=10) as engine:
            seconds = engine.seconds_for(app.configs)

        assert seconds == app.expected_seconds()
        stats = engine.stats
        assert stats.task_errors == len(injected["raise"])
        assert stats.worker_crashes == len(injected["kill"])
        assert stats.task_timeouts == len(injected["hang"])
        total_faults = sum(len(v) for v in injected.values())
        assert stats.task_retries == total_faults
        assert stats.fault_recoveries == total_faults
        assert stats.backoff_seconds > 0.0
        # Every faulted task succeeded on retry inside the pool.
        assert stats.serial_fallback_tasks == 0
        assert stats.workers_quarantined == 0
        assert stats.pool_fallbacks == 0
        # Each config was measured exactly once (faults fire before
        # any work, so failed attempts contribute nothing).
        assert stats.simulations == len(app.configs)

    def test_results_bit_identical_to_serial(self):
        serial_app = SweepApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1) as serial:
            serial_seconds = serial.seconds_for(serial_app.configs)

        faulted_app = SweepApp()
        plan = FaultPlan(
            [Fault("raise", index=0), Fault("kill", index=7),
             Fault("hang", index=15)],
            hang_seconds=30.0,
        )
        with _engine(faulted_app, plan, max_worker_failures=10) as faulted:
            faulted_seconds = faulted.seconds_for(faulted_app.configs)

        assert faulted_seconds == serial_seconds
        assert faulted.stats.simulations == serial.stats.simulations


class TestRetryExhaustion:
    def test_persistent_fault_falls_back_to_serial_for_that_task_only(
        self, caplog
    ):
        app = SweepApp()
        # Fault on every attempt: the pool can never finish task 3.
        plan = FaultPlan([Fault("raise", index=3, attempts=999)])
        with caplog.at_level(logging.WARNING, logger="repro.tuning.engine"):
            with _engine(app, plan, max_worker_failures=10) as engine:
                seconds = engine.seconds_for(app.configs)

        # The parent never consults the plan, so the sweep still
        # completes bit-identically.
        assert seconds == app.expected_seconds()
        stats = engine.stats
        assert stats.task_errors == 3          # one per attempt
        assert stats.task_retries == 2         # budget is 3 attempts
        assert stats.serial_fallback_tasks == 1
        assert stats.pool_fallbacks == 0       # the pool itself is fine
        assert stats.simulations == len(app.configs)
        assert any("exhausted the scheduler's retries" in r.getMessage()
                   for r in caplog.records)


class TestQuarantineAndCollapse:
    def test_total_collapse_degrades_to_serial_with_exact_accounting(
        self, caplog
    ):
        app = SweepApp()
        # Every dispatch kills its worker: each of the two slots
        # accumulates failures to the quarantine threshold, the pool
        # collapses, and the whole sweep degrades to the serial path.
        plan = FaultPlan(
            [Fault("kill", index=i, attempts=999)
             for i in range(len(app.configs))]
        )
        with caplog.at_level(logging.WARNING):
            with _engine(app, plan, max_worker_failures=3) as engine:
                seconds = engine.seconds_for(app.configs)

        assert seconds == app.expected_seconds()
        stats = engine.stats
        # Exactly max_worker_failures crashes per slot, then quarantine.
        assert stats.worker_crashes == 2 * 3
        assert stats.workers_quarantined == 2
        assert stats.pool_fallbacks == 1
        assert "quarantined" in stats.pool_fallback_reason
        assert stats.simulations == len(app.configs)
        # After the collapse the engine never rebuilds a pool.
        assert engine._pool_broken
        assert engine._scheduler is None
        assert any("quarantined" in r.getMessage() for r in caplog.records)

    def test_collapsed_engine_stays_serial_for_later_batches(self):
        app = SweepApp()
        plan = FaultPlan(
            [Fault("kill", index=i, attempts=999)
             for i in range(len(app.configs))]
        )
        with _engine(app, plan, max_worker_failures=1) as engine:
            engine.seconds_for(app.configs)
            assert engine.stats.pool_fallbacks == 1
            engine._seconds.clear()
            engine.seconds_for(app.configs)
            # Serial from the start this time: no new fallback event,
            # no resurrected scheduler.
            assert engine.stats.pool_fallbacks == 1
            assert engine._scheduler is None


class TestStaticStageFaults:
    def test_static_sweep_recovers_and_matches_serial(self):
        serial_app = SweepApp()
        with ExecutionEngine(serial_app.evaluate, serial_app.simulate,
                             workers=1) as serial:
            serial_entries = serial.evaluate_all(serial_app.configs)

        app = SweepApp()
        plan = FaultPlan([
            Fault("kill", index=0, stage="static"),
            Fault("raise", index=1, stage="static"),
        ])
        with _engine(app, plan, max_worker_failures=10) as engine:
            entries = engine.evaluate_all(app.configs)

        assert [(e.metrics, e.invalid_reason) for e in entries] == [
            (e.metrics, e.invalid_reason) for e in serial_entries
        ]
        assert engine.stats.worker_crashes == 1
        assert engine.stats.task_errors == 1
        assert engine.stats.task_retries == 2
        assert engine.stats.static_evaluations == len(app.configs)


class TestRealAppUnderFaults:
    def test_matmul_results_and_counters_bit_identical(self):
        """Full pipeline through real compile + simulate under faults:
        reports, times, and the partition-independent counter set all
        equal the serial run's."""
        from tests.tuning.test_static_pool import (
            COMPARED_COUNTERS, _matmul_configs,
        )

        chosen = _matmul_configs()

        from repro.apps import MatMul

        serial_app = MatMul().test_instance()
        with serial_app.search_engine(workers=1) as serial:
            serial_entries = serial.evaluate_all(chosen)
            serial_seconds = serial.seconds_for(chosen)

        plan = FaultPlan(
            [Fault("raise", index=1), Fault("kill", index=3)]
        )
        faulted_app = MatMul().test_instance()
        with faulted_app.search_engine(
            workers=2,
            retry_policy=RetryPolicy(timeout_seconds=60.0,
                                     backoff_base=0.01,
                                     max_worker_failures=10),
            fault_spec=plan.to_spec(),
        ) as faulted:
            faulted_entries = faulted.evaluate_all(chosen)
            faulted_seconds = faulted.seconds_for(chosen)

        assert faulted_seconds == serial_seconds
        assert [(e.metrics, e.invalid_reason) for e in faulted_entries] == [
            (e.metrics, e.invalid_reason) for e in serial_entries
        ]
        for name in COMPARED_COUNTERS:
            assert getattr(faulted.stats, name) == getattr(
                serial.stats, name
            ), name
        # Both stages saw the injected faults (stageless plan).
        assert faulted.stats.worker_crashes == 2
        assert faulted.stats.task_errors == 2
        assert faulted.stats.task_retries == 4


class TestFaultsFromEnvironment:
    def test_engine_reads_repro_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:2")
        app = SweepApp()
        engine = ExecutionEngine(app.evaluate, app.simulate, workers=2)
        try:
            assert engine.fault_spec == "raise:2"
            seconds = engine.seconds_for(app.configs)
        finally:
            engine.close()
        assert seconds == app.expected_seconds()
        assert engine.stats.task_errors == 1
        assert engine.stats.task_retries == 1

    def test_malformed_spec_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "explode:1")
        app = SweepApp()
        with pytest.raises(ValueError, match="explode"):
            ExecutionEngine(app.evaluate, app.simulate, workers=2)


class TestSchedulerDeterminism:
    def test_backoff_schedule_is_reproducible(self):
        policy = RetryPolicy(seed=42)
        first = [policy.backoff_seconds(f"sim:{i}", a)
                 for i in range(20) for a in (1, 2, 3)]
        second = [policy.backoff_seconds(f"sim:{i}", a)
                  for i in range(20) for a in (1, 2, 3)]
        assert first == second
        # Jitter de-synchronizes tasks: not all delays identical.
        assert len(set(first)) > 1
        # And the exponential envelope holds.
        assert max(first) <= policy.backoff_cap * (1 + policy.jitter)

    def test_backoff_cap_bounds_the_jittered_delay(self):
        """Regression: the cap was applied to the pre-jitter base, so
        jitter could stretch the sleep up to cap * (1 + jitter) — the
        cap must bound the *final* delay."""
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_cap=1.5, jitter=1.0, seed=0)
        delays = [policy.backoff_seconds(f"sim:{i}", attempt)
                  for i in range(50) for attempt in (1, 2, 3, 4)]
        assert max(delays) <= policy.backoff_cap
        # deep attempts saturate at exactly the cap
        assert policy.backoff_seconds("sim:0", 4) == policy.backoff_cap
        # small early delays keep their jitter spread below the cap
        early = [policy.backoff_seconds(f"sim:{i}", 1) for i in range(50)]
        assert len(set(early)) > 1
        assert all(1.0 <= delay <= 1.5 for delay in early)

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        policy = RetryPolicy.from_env()
        assert policy.timeout_seconds == 12.5
        assert policy.max_attempts == 5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "none")
        assert RetryPolicy.from_env().timeout_seconds is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            RetryPolicy.from_env()
        monkeypatch.delenv("REPRO_TASK_TIMEOUT")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            RetryPolicy.from_env()

    def test_scheduler_streams_results_in_completion_order(self):
        app = SweepApp()
        seen = []
        scheduler = SweepScheduler(
            2, app.simulate, app.evaluate,
            policy=RetryPolicy(timeout_seconds=30.0),
        )
        try:
            abandoned = scheduler.run(
                "sim", [[config] for config in app.configs],
                lambda index, result, delta: seen.append((index, result)),
            )
        finally:
            scheduler.close()
        assert abandoned == []
        assert sorted(i for i, _ in seen) == list(range(len(app.configs)))
        expected = app.expected_seconds()
        for index, result in seen:
            assert result == [expected[index]]
