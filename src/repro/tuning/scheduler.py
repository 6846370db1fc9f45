"""Fault-tolerant work-queue scheduler for sweep fan-out.

The execution engine's original pool fan-out was one-shot
``executor.map``: a single stuck worker stalled the whole batch
forever, and a single crashed worker broke the executor and dumped
every remaining configuration onto the serial fallback path.  For the
full-space sweeps that validate the paper's pruning claim (hundreds of
simulations per application) that is the difference between a sweep
that finishes and one that has to be babysat.

:class:`SweepScheduler` replaces the one-shot map with a work queue:

* **per-task dispatch** — each worker holds at most one task, sent
  over a dedicated pipe, so results stream back in completion order
  and a slow task never blocks the recording of finished ones;
* **deadlines** — a task that exceeds ``RetryPolicy.timeout_seconds``
  gets its worker killed and is retried elsewhere;
* **bounded retry with deterministic backoff** — failed tasks re-enter
  the queue after an exponential backoff whose jitter is *seeded*
  (hash of policy seed, task key, and attempt), so two runs of the
  same sweep schedule retries identically;
* **worker health** — a worker slot that fails
  ``RetryPolicy.max_worker_failures`` tasks is quarantined and the
  pool resized instead of burning respawns forever; a crashed worker
  below the threshold is respawned in place;
* **graceful degradation** — only tasks that exhaust their retry
  budget (or outlive the whole pool) are handed back for serial
  execution, where a real error finally surfaces to the caller;
* **exact telemetry** — every retry, timeout, crash, quarantine, and
  backoff second is counted in the scheduler's ``counts`` registry
  (:data:`SCHEDULER_COUNTERS`), in the parent process, so the totals
  are exact under any worker count.

Fault injection (:mod:`repro.obs.faults`) threads through the worker
entry point: when a :class:`~repro.obs.faults.FaultPlan` is supplied,
workers consult it before running each task, which lets the chaos
suite exercise every one of the recovery paths above deterministically.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import heapq
import logging
import multiprocessing
import multiprocessing.connection
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.occupancy import LaunchError
from repro.obs.faults import (
    FaultPlan,
    FaultInjected,
    SIMULATE_STAGE,
    STATIC_STAGE,
)
from repro.obs.metrics import Counters, counter_delta

logger = logging.getLogger(__name__)

#: Re-exported so engine code imports stages from one place.
#: A measurement task's payload is a *list* of configurations (one
#: trace program's, or a single one), its result the list of seconds
#: in payload order; a static task's payload is one configuration.
SIMULATE = SIMULATE_STAGE
STATIC = STATIC_STAGE

#: ``(index, payload, counter_delta)`` streamed to the caller as each
#: task completes.
OnResult = Callable[[int, Any, Optional[Dict[str, float]]], None]

#: Reserved counter-delta key carrying a worker's persistent-store
#: backlog (a list of ``(tier, key, obj)`` entries) back to the parent.
#: Workers never write the store themselves — the parent absorbs these
#: and owns all disk write-back, so one process serializes the writes.
STORE_DELTA_KEY = "__store_entries__"


class SchedulerError(RuntimeError):
    """The scheduler could not be started (worker spawn failed)."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry, timeout, and worker-health knobs for one scheduler.

    ``timeout_seconds=None`` disables deadlines (a hung worker then
    stalls its own slot until the sweep ends, but crash detection
    still works — worker death is observed as pipe EOF, not polled).
    The backoff for attempt ``n`` is ``base * factor**(n-1)`` capped at
    ``backoff_cap``, stretched by a deterministic jitter fraction in
    ``[0, jitter]`` derived from ``seed``, the task key, and the
    attempt number — reproducible, but de-synchronized across tasks.
    """

    max_attempts: int = 3
    timeout_seconds: Optional[float] = 600.0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    max_worker_failures: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive or None, "
                f"got {self.timeout_seconds}"
            )
        if self.max_worker_failures < 1:
            raise ValueError(
                f"max_worker_failures must be >= 1, "
                f"got {self.max_worker_failures}"
            )

    @classmethod
    def from_env(cls, environ=None, **overrides) -> "RetryPolicy":
        """Policy with ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``
        applied (explicit ``overrides`` win).

        Malformed values raise :class:`ValueError` naming the variable
        — the same actionable-diagnostics contract as
        ``resolve_workers``.
        """
        environ = os.environ if environ is None else environ
        kwargs: Dict[str, Any] = {}
        timeout = environ.get("REPRO_TASK_TIMEOUT")
        if timeout is not None:
            text = timeout.strip().lower()
            if text in ("", "0", "none", "off"):
                kwargs["timeout_seconds"] = None
            else:
                try:
                    kwargs["timeout_seconds"] = float(text)
                except ValueError:
                    raise ValueError(
                        f"REPRO_TASK_TIMEOUT={timeout!r} is not a valid "
                        "timeout (expected seconds, or 'none' to disable)"
                    ) from None
        retries = environ.get("REPRO_TASK_RETRIES")
        if retries:
            try:
                kwargs["max_attempts"] = int(retries)
            except ValueError:
                raise ValueError(
                    f"REPRO_TASK_RETRIES={retries!r} is not a valid "
                    "attempt count (expected an integer)"
                ) from None
        kwargs.update(overrides)
        return cls(**kwargs)

    def backoff_seconds(self, task_key: str, attempt: int) -> float:
        """Deterministic jittered backoff before retry ``attempt + 1``.

        The cap bounds the *final* sleep, not the pre-jitter base —
        capping before stretching let jitter push delays up to
        ``backoff_cap * (1 + jitter)``, which defeats the point of a
        cap (it exists so a sweep's worst-case retry stall is known).
        """
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        digest = hashlib.sha256(
            f"{self.seed}:{task_key}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return min(self.backoff_cap, base * (1.0 + self.jitter * fraction))


#: the scheduler's fault counters, zero-filled — counted in the
#: parent, so always exact (backoff is in seconds, hence the float zero)
FAULT_COUNTERS = {
    "task_retries": 0,         # re-queues after a failed attempt
    "task_timeouts": 0,        # deadline kills
    "task_errors": 0,          # exceptions returned by workers
    "worker_crashes": 0,       # worker processes that died on a task
    "workers_quarantined": 0,  # slots retired for repeated failure
    "backoff_seconds": 0.0,    # total scheduled retry delay
}
#: every counter the scheduler keeps
SCHEDULER_COUNTERS = {
    "dispatched": 0,           # task attempts sent to workers
    **FAULT_COUNTERS,
}


# ----------------------------------------------------------------------
# Worker side.


def _cache_for(simulate, evaluate):
    """The simulator cache owned by the task callables, if any.

    Mirrors the old pool initializer: when the callables are bound
    methods of an :class:`~repro.apps.base.Application`, the worker's
    forked copy of the app carries its own ``SimulationCache`` whose
    per-task counter deltas ride back with each result.
    """
    owner = getattr(simulate, "__self__", None)
    if owner is None:
        owner = getattr(evaluate, "__self__", None)
    return getattr(owner, "sim_cache", None)


def _run_task(stage, index, attempt, payload, simulate, evaluate, plan, cache):
    """Execute one task in a worker; never raises (returns a message).

    ``ok`` messages carry ``(payload_out, counter_delta)``; ``error``
    messages carry the exception text.  :class:`LaunchError` from the
    static stage is a *result* (an invalid configuration), not a
    failure — exactly the distinction the serial path makes.
    """
    if plan is not None:
        try:
            plan.apply(stage, index, attempt)
        except FaultInjected as error:
            return ("error", index, attempt, str(error), None)
    before = cache.counters() if cache is not None else None
    try:
        if stage == SIMULATE:
            result = [simulate(config) for config in payload]
        else:
            try:
                result = (evaluate(payload), None)
            except LaunchError as error:
                result = (None, str(error))
    except BaseException as error:  # the worker itself must survive
        return (
            "error", index, attempt,
            f"{type(error).__name__}: {error}", None,
        )
    delta = counter_delta(cache.counters(), before) if cache is not None else None
    if cache is not None and getattr(cache, "store", None) is not None:
        backlog = cache.drain_store_backlog()
        if backlog:
            delta = dict(delta or {})
            delta[STORE_DELTA_KEY] = backlog
    return ("ok", index, attempt, result, delta)


def _worker_main(worker_id, task_reader, result_writer,
                 simulate, evaluate, fault_spec):
    """Worker loop: recv task, run, send result, repeat until sentinel."""
    plan = FaultPlan.from_spec(fault_spec)
    cache = _cache_for(simulate, evaluate)
    if cache is not None and hasattr(cache, "set_store_write_back"):
        # Workers read the store through but never write it: fresh
        # artifacts go to the backlog and ride home with each result.
        cache.set_store_write_back(False)
    while True:
        try:
            message = task_reader.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        stage, index, attempt, payload = message
        outcome = _run_task(
            stage, index, attempt, payload, simulate, evaluate, plan, cache
        )
        try:
            result_writer.send(outcome)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Parent side.


class _Worker:
    """One worker slot: process, pipes, and its failure history.

    ``failures`` survives respawns — it tracks the *slot*, not the
    process, so a task mix that keeps killing fresh processes still
    converges on quarantine.
    """

    __slots__ = ("id", "process", "task_conn", "result_conn",
                 "failures", "inflight", "deadline")

    def __init__(self, id, process, task_conn, result_conn, failures=0):
        self.id = id
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.failures = failures
        self.inflight: Optional[int] = None
        self.deadline: Optional[float] = None


class SweepScheduler:
    """Work-queue scheduler over a pool of pipe-fed worker processes.

    One scheduler serves both engine stages (``SIMULATE`` and
    ``STATIC`` tasks share the worker pool and its health history) and
    persists across batches — workers stay warm like the executor they
    replace.  ``close()`` (or the context manager) tears the pool down.

    ``counts`` is the registry the scheduler counts into (a fresh
    zero-filled one by default); an engine passes the same registry to
    every scheduler it builds, so its totals outlive a torn-down pool.
    """

    def __init__(
        self,
        workers: int,
        simulate,
        evaluate=None,
        policy: Optional[RetryPolicy] = None,
        fault_spec: Optional[str] = None,
        context=None,
        counts: Optional[Counters] = None,
    ) -> None:
        self.requested_workers = max(1, int(workers))
        self.policy = policy if policy is not None else RetryPolicy()
        self._simulate = simulate
        self._evaluate = evaluate
        self._fault_spec = fault_spec
        # fork keeps the callables reachable without pickling them
        # through the task pipes (they are inherited at spawn time).
        self._ctx = context if context is not None else (
            multiprocessing.get_context("fork")
        )
        self._workers: List[_Worker] = []
        self._next_worker_id = 0
        self._started = False
        self._closed = False
        self.counts = (
            counts if counts is not None else Counters(SCHEDULER_COUNTERS)
        )
        self.last_failure: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle.

    @property
    def active_workers(self) -> int:
        return len(self._workers)

    def start(self) -> None:
        """Spawn the worker pool (idempotent).

        Raises :class:`SchedulerError` when no worker can be spawned
        at all; a *partial* pool (some spawns failed) starts degraded
        but working.
        """
        if self._started:
            return
        errors: List[str] = []
        spawned: List[_Worker] = []
        for _ in range(self.requested_workers):
            try:
                spawned.append(self._spawn_worker())
            except (OSError, ValueError) as error:
                errors.append(str(error))
        if not spawned:
            raise SchedulerError(
                f"could not spawn any of {self.requested_workers} "
                f"workers: {errors[0] if errors else 'unknown error'}"
            )
        if errors:
            logger.warning(
                "only %d of %d workers could be spawned (%s)",
                len(spawned), self.requested_workers, errors[0],
            )
        self._workers = spawned
        self._started = True

    def _spawn_worker(self, failures: int = 0) -> _Worker:
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        try:
            result_reader, result_writer = self._ctx.Pipe(duplex=False)
        except BaseException:
            task_reader.close()
            task_writer.close()
            raise
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_reader, result_writer,
                  self._simulate, self._evaluate, self._fault_spec),
            daemon=True,
            name=f"repro-sweep-{worker_id}",
        )
        try:
            process.start()
        except BaseException:
            # A failed respawn must not leak its slot's pipes: a
            # long-lived scheduler that retries spawns for weeks would
            # otherwise bleed four descriptors per attempt.
            for conn in (task_reader, task_writer,
                         result_reader, result_writer):
                conn.close()
            raise
        # Close the child's pipe ends in the parent so a dead worker
        # shows up as EOF on result_conn instead of a silent stall.
        task_reader.close()
        result_writer.close()
        return _Worker(worker_id, process, task_writer, result_reader,
                       failures=failures)

    def begin_request(self) -> None:
        """Reset per-request slot health and refill the pool.

        A resident scheduler (the daemon mode) serves many unrelated
        sweeps; without a request boundary, failure counts leak across
        them — request N's flaky tasks quarantine slots that request
        N+1 never got to use, and slots lost to quarantine or failed
        respawns stay dead forever.  Called between requests this

        * zeroes every surviving slot's failure count (health is
          per-request, not per-daemon-lifetime),
        * reaps slots whose worker died idle since the last request,
        * respawns slots lost to quarantine, crashes, or respawn
          failures, restoring the pool to ``requested_workers``.

        Lifetime totals in :attr:`counts` are deliberately untouched —
        they feed ``/metrics``; per-request deltas are the caller's
        job (see ``EngineStats.delta_since``).  A no-op before
        ``start()`` or after ``close()``.
        """
        if self._closed or not self._started:
            return
        retained: List[_Worker] = []
        for worker in self._workers:
            if worker.process.is_alive():
                worker.failures = 0
                worker.inflight = None
                worker.deadline = None
                retained.append(worker)
            else:
                self._stop_worker(worker, graceful=False)
        self._workers = retained
        while len(self._workers) < self.requested_workers:
            try:
                self._workers.append(self._spawn_worker())
            except (OSError, ValueError) as error:
                logger.warning(
                    "could not refill the worker pool to %d slots "
                    "(at %d): %s", self.requested_workers,
                    len(self._workers), error,
                )
                break
        self.last_failure = None

    def close(self) -> None:
        """Stop every worker (sentinel first, force if needed)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop_worker(worker, graceful=True)
        self._workers = []

    def __enter__(self) -> "SweepScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stop_worker(self, worker: _Worker, graceful: bool) -> None:
        if graceful and worker.process.is_alive():
            try:
                worker.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=1.0)
        worker.task_conn.close()
        worker.result_conn.close()

    # ------------------------------------------------------------------
    # The work queue.

    def run(
        self,
        stage: str,
        payloads: Sequence[Any],
        on_result: OnResult,
    ) -> List[int]:
        """Run every payload through the pool; stream results back.

        ``on_result(index, payload_out, counter_delta)`` is invoked in
        *completion* order as each task finishes — callers that persist
        results inside the callback (the engine's store writes) get
        genuinely incremental persistence instead of end-of-batch dumps.

        Returns the sorted indices of tasks that could not be completed
        in the pool (retry budget exhausted, or the pool collapsed);
        the caller runs those serially, where a real failure finally
        surfaces as an ordinary exception.
        """
        if not payloads:
            return []
        self.start()
        policy = self.policy
        total = len(payloads)
        pending: collections.deque = collections.deque(range(total))
        waiting: List[Tuple[float, int]] = []  # (ready_time, index) heap
        attempts = [0] * total
        completed = 0
        abandoned: List[int] = []

        while completed + len(abandoned) < total:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                pending.append(heapq.heappop(waiting)[1])

            if not self._workers:
                # Pool collapsed (every slot quarantined): everything
                # still queued degrades to the caller's serial path.
                abandoned.extend(pending)
                pending.clear()
                abandoned.extend(index for _, index in waiting)
                waiting.clear()
                break

            self._dispatch(stage, payloads, pending, waiting, abandoned,
                           attempts)
            inflight = [w for w in self._workers if w.inflight is not None]
            if not inflight:
                if waiting:
                    delay = max(0.0, waiting[0][0] - time.monotonic())
                    time.sleep(min(delay, 0.5))
                continue

            completed += self._collect(
                stage, inflight, waiting, abandoned, attempts, on_result
            )
        return sorted(abandoned)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, stage, payloads, pending, waiting, abandoned,
                  attempts) -> None:
        for worker in list(self._workers):
            if not pending:
                return
            if worker.inflight is not None:
                continue
            if not worker.process.is_alive():
                # Died idle (e.g. killed between tasks); replace the
                # slot without charging any task for it.
                self._remove_worker(worker, respawn=True)
                continue
            index = pending.popleft()
            attempts[index] += 1
            self.counts.incr("dispatched")
            try:
                worker.task_conn.send(
                    (stage, index, attempts[index], payloads[index])
                )
            except (BrokenPipeError, OSError):
                self._worker_failed(worker, alive=False)
                self._requeue(stage, index, attempts, waiting, abandoned,
                              "worker died before dispatch")
                continue
            timeout = self.policy.timeout_seconds
            worker.inflight = index
            worker.deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )

    # -- collection ------------------------------------------------------

    def _collect(self, stage, inflight, waiting, abandoned, attempts,
                 on_result) -> int:
        """Wait for one scheduling event; returns completed-task count."""
        next_events = [w.deadline for w in inflight if w.deadline is not None]
        if waiting:
            next_events.append(waiting[0][0])
        timeout = None
        if next_events:
            timeout = max(0.0, min(next_events) - time.monotonic())
        ready = multiprocessing.connection.wait(
            [w.result_conn for w in inflight], timeout=timeout
        )
        by_conn = {w.result_conn: w for w in inflight}
        completed = 0
        for conn in ready:
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                index = worker.inflight
                self.counts.incr("worker_crashes")
                logger.warning(
                    "worker %d crashed on %s task %d (attempt %d)",
                    worker.id, stage, index, attempts[index],
                )
                self._worker_failed(worker, alive=False)
                self._requeue(stage, index, attempts, waiting, abandoned,
                              "worker crashed")
                continue
            kind, index, _attempt, payload_out, delta = message
            if worker.inflight != index:
                continue  # stale result from a superseded attempt
            worker.inflight = None
            worker.deadline = None
            if kind == "ok":
                completed += 1
                on_result(index, payload_out, delta)
            else:
                self.counts.incr("task_errors")
                self.last_failure = str(payload_out)
                logger.warning(
                    "%s task %d failed in worker %d (attempt %d): %s",
                    stage, index, worker.id, attempts[index], payload_out,
                )
                self._worker_failed(worker, alive=True)
                self._requeue(stage, index, attempts, waiting, abandoned,
                              str(payload_out))

        # Deadline sweeps: anything still inflight past its deadline
        # costs the worker its process (it may be wedged in C code or a
        # syscall — cooperative cancellation cannot reach it).
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.inflight is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            index = worker.inflight
            self.counts.incr("task_timeouts")
            logger.warning(
                "%s task %d timed out after %.1fs in worker %d; "
                "killing the worker and retrying",
                stage, index, self.policy.timeout_seconds, worker.id,
            )
            self._worker_failed(worker, alive=False, kill=True)
            self._requeue(stage, index, attempts, waiting, abandoned,
                          "task timed out")
        return completed

    # -- failure accounting ----------------------------------------------

    def _requeue(self, stage, index, attempts, waiting, abandoned,
                 reason: str) -> None:
        self.last_failure = reason
        if attempts[index] >= self.policy.max_attempts or not self._workers:
            abandoned.append(index)
            return
        self.counts.incr("task_retries")
        delay = self.policy.backoff_seconds(
            f"{stage}:{index}", attempts[index]
        )
        self.counts.incr("backoff_seconds", delay)
        heapq.heappush(waiting, (time.monotonic() + delay, index))

    def _worker_failed(self, worker: _Worker, alive: bool,
                       kill: bool = False) -> None:
        """Charge a failure to a slot; quarantine or respawn it."""
        worker.failures += 1
        worker.inflight = None
        worker.deadline = None
        if not alive or kill:
            self._remove_worker(
                worker,
                respawn=worker.failures < self.policy.max_worker_failures,
                force=kill,
            )
        elif worker.failures >= self.policy.max_worker_failures:
            self._remove_worker(worker, respawn=False)

    def _remove_worker(self, worker: _Worker, respawn: bool,
                       force: bool = False) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        # A timed-out worker may be wedged; skip the sentinel handshake
        # and terminate it outright.
        self._stop_worker(
            worker, graceful=not force and worker.process.is_alive()
        )
        if respawn:
            try:
                self._workers.append(
                    self._spawn_worker(failures=worker.failures)
                )
            except (OSError, ValueError) as error:
                logger.warning(
                    "could not respawn worker slot (was worker %d): %s",
                    worker.id, error,
                )
        else:
            self.counts.incr("workers_quarantined")
            logger.warning(
                "worker %d quarantined after %d failed tasks; "
                "pool resized to %d worker(s)",
                worker.id, worker.failures, len(self._workers),
            )


__all__ = [
    "FAULT_COUNTERS",
    "RetryPolicy",
    "SCHEDULER_COUNTERS",
    "SchedulerError",
    "STORE_DELTA_KEY",
    "SweepScheduler",
    "SIMULATE",
    "STATIC",
]
