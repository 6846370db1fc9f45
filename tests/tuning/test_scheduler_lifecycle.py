"""Satellite 2: request-boundary lifecycle on a resident scheduler.

A daemon keeps one SweepScheduler alive across unrelated sweeps;
``begin_request`` must reset per-request slot health, reap workers
that died idle, refill quarantined/lost slots, and never leak pipe
descriptors when a (re)spawn fails.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.tuning.engine import ExecutionEngine
from repro.tuning.scheduler import SchedulerError, SweepScheduler

pytestmark = pytest.mark.fast


def _noop_sim(config):  # module-level: forked workers import cleanly
    return 0.0


def make_scheduler(workers: int = 2) -> SweepScheduler:
    return SweepScheduler(workers, _noop_sim)


def test_begin_request_resets_slot_health():
    scheduler = make_scheduler()
    scheduler.start()
    try:
        pids = sorted(w.process.pid for w in scheduler._workers)
        for worker in scheduler._workers:
            worker.failures = 2
            worker.inflight = 7
            worker.deadline = time.monotonic() + 99
        scheduler.last_failure = "request N's flaky task"
        scheduler.begin_request()
        assert scheduler.active_workers == 2
        # Healthy workers are retained as-is (same processes) with
        # their per-request history wiped.
        assert sorted(w.process.pid for w in scheduler._workers) == pids
        assert all(w.failures == 0 for w in scheduler._workers)
        assert all(w.inflight is None for w in scheduler._workers)
        assert all(w.deadline is None for w in scheduler._workers)
        assert scheduler.last_failure is None
    finally:
        scheduler.close()


def test_begin_request_reaps_dead_workers_and_respawns():
    scheduler = make_scheduler()
    scheduler.start()
    try:
        victim = scheduler._workers[0]
        survivor_pid = scheduler._workers[1].process.pid
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        assert not victim.process.is_alive()
        scheduler.begin_request()
        assert scheduler.active_workers == 2
        assert all(w.process.is_alive() for w in scheduler._workers)
        pids = [w.process.pid for w in scheduler._workers]
        assert victim.process.pid not in pids
        assert survivor_pid in pids
    finally:
        scheduler.close()


def test_begin_request_refills_quarantined_slots():
    scheduler = make_scheduler()
    scheduler.start()
    try:
        scheduler._remove_worker(scheduler._workers[0], respawn=False)
        assert scheduler.active_workers == 1
        assert scheduler.counts["workers_quarantined"] == 1
        scheduler.begin_request()
        assert scheduler.active_workers == 2
        assert all(w.process.is_alive() for w in scheduler._workers)
        # Lifetime telemetry is untouched by the boundary.
        assert scheduler.counts["workers_quarantined"] == 1
    finally:
        scheduler.close()


def test_begin_request_is_noop_before_start_and_after_close():
    scheduler = make_scheduler()
    scheduler.begin_request()  # never started: nothing to do
    assert scheduler.active_workers == 0
    assert not scheduler._started
    scheduler.start()
    scheduler.close()
    scheduler.begin_request()  # closed: must not resurrect the pool
    assert scheduler.active_workers == 0


class _TrackingContext:
    """A multiprocessing context whose pipes are recorded and whose
    processes refuse to start — the spawn-failure harness."""

    def __init__(self, fail_pipe_on_call=None):
        self._real = multiprocessing.get_context("fork")
        self.connections = []
        self._pipe_calls = 0
        self._fail_pipe_on_call = fail_pipe_on_call

    def Pipe(self, duplex=True):
        self._pipe_calls += 1
        if self._pipe_calls == self._fail_pipe_on_call:
            raise OSError(24, "too many open files")
        reader, writer = self._real.Pipe(duplex=duplex)
        self.connections.extend((reader, writer))
        return reader, writer

    def Process(self, *args, **kwargs):
        process = self._real.Process(*args, **kwargs)

        def failing_start():
            raise OSError(11, "resource temporarily unavailable")

        process.start = failing_start
        return process


def test_failed_process_start_closes_all_four_pipe_ends():
    ctx = _TrackingContext()
    scheduler = SweepScheduler(1, _noop_sim, context=ctx)
    with pytest.raises(SchedulerError):
        scheduler.start()
    assert len(ctx.connections) == 4
    assert all(conn.closed for conn in ctx.connections)


def test_failed_second_pipe_closes_the_first_pair():
    ctx = _TrackingContext(fail_pipe_on_call=2)
    scheduler = SweepScheduler(1, _noop_sim, context=ctx)
    with pytest.raises(SchedulerError):
        scheduler.start()
    assert len(ctx.connections) == 2  # only the task pipe was created
    assert all(conn.closed for conn in ctx.connections)


def test_respawn_failure_during_begin_request_does_not_raise():
    scheduler = make_scheduler()
    scheduler.start()
    try:
        os.kill(scheduler._workers[0].process.pid, signal.SIGKILL)
        scheduler._workers[0].process.join(timeout=10)

        def failing_spawn(failures=0):
            raise OSError(11, "resource temporarily unavailable")

        scheduler._spawn_worker = failing_spawn
        scheduler.begin_request()  # degrades instead of raising
        assert scheduler.active_workers == 1
    finally:
        del scheduler._spawn_worker
        scheduler.close()


# ----------------------------------------------------------------------
# The engine-level boundary.


class _StubScheduler:
    def __init__(self):
        self.begin_requests = 0

    def begin_request(self):
        self.begin_requests += 1


def _evaluate(config):
    return None


def test_engine_begin_request_resets_pool_and_snapshots():
    engine = ExecutionEngine(_evaluate, _noop_sim, workers=1)
    try:
        stub = _StubScheduler()
        engine._scheduler = stub
        engine._pool_broken = True
        engine.counts.incr("simulations", 5)
        before = engine.begin_request()
        assert engine._pool_broken is False
        assert stub.begin_requests == 1
        # The baseline is a detached copy: later counting does not
        # disturb it.
        engine.counts.incr("simulations", 4)
        assert engine.stats.simulations == 9
        assert before.simulations == 5
    finally:
        engine._scheduler = None
        engine.close()


def test_engine_delta_since_diffs_counters_and_carries_state():
    engine = ExecutionEngine(_evaluate, _noop_sim, workers=1)
    try:
        engine.counts.incr("simulations", 3)
        engine.workers = 4
        before = engine.begin_request()
        engine.counts.incr("simulations", 7)
        engine.counts.incr("simulation_cache_hits", 2)
        engine.pool_fallback_reason = "pool broke"
        delta = engine.stats.delta_since(before)
        assert delta["simulations"] == 7
        assert delta["simulation_cache_hits"] == 2
        assert delta["cache_hits"] == 2  # derived sums diff linearly
        assert delta["workers"] == 4  # current state, not a diff
        assert delta["pool_fallback_reason"] == "pool broke"
    finally:
        engine.close()
