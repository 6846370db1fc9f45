"""Shared evaluation cache and parallel execution engine (the tuner's core).

The paper's contribution is avoiding wasted measurement; the engine
applies the same discipline to the harness itself.  Every search
strategy used to walk the configuration space independently: a
multi-strategy experiment evaluated the static metrics once *per
strategy* and re-simulated configurations another strategy had already
timed.  The :class:`ExecutionEngine` owns the space instead:

* static metrics are computed exactly once per configuration and
  memoized (``Configuration`` is immutable and hashable — the cache is
  a plain dict keyed by the configuration itself);
* ``simulate(config)`` results are memoized the same way, so no
  configuration is ever measured twice, no matter how many strategies
  ask for it;
* cache misses — in *both* stages — fan out across a fault-tolerant
  work-queue scheduler (:class:`~repro.tuning.scheduler.SweepScheduler`)
  when ``workers > 1``: per-task dispatch with a configurable timeout,
  bounded retry with deterministic backoff, worker quarantine, and
  serial fallback only for tasks that exhaust their retry budget.
  Results are keyed by configuration and re-assembled in request
  order, so ``workers=4`` is bit-identical to ``workers=1`` — results
  *and* telemetry counters — even under injected faults (see
  :mod:`repro.obs.faults`);
* with a result store attached, every static entry and measured time
  is written to the store's ``config`` tier the moment it arrives,
  keyed by :meth:`~repro.apps.base.Application.result_key`, and read
  back on a memo miss before any work is dispatched — so an
  interrupted or killed sweep resumes losslessly, building no kernel
  for a configuration it already finished; a damaged entry is a
  counted store miss and is recomputed;
* telemetry (evaluated counts, cache hits, wall time per stage) is
  counted in the engine's registry, retries/timeouts/quarantines in
  the scheduler's, and :attr:`ExecutionEngine.stats` is the
  read-only :class:`EngineStats` view over both plus the simulator
  cache's, surfaced by the harness report.  Pool workers return a
  counter *delta* with every successful result, merged into the
  engine's registry, so simulator-cache telemetry is exact for any
  worker count — not just in serial mode;
* a scheduler that cannot be started, or whose entire worker pool is
  quarantined away, degrades to in-process execution *loudly*: the
  degradation is counted (``pool_fallbacks``) with its reason, and a
  warning is logged.

The search strategies in :mod:`repro.tuning.search` accept an engine;
their original ``(configs, evaluate, simulate)`` signatures remain as
thin wrappers that build a private single-worker engine.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.arch.occupancy import LaunchError
from repro.metrics.model import MetricReport
from repro.obs.faults import FAULTS_ENV, FaultPlan
from repro.obs.metrics import Counters
from repro.obs.trace import span
from repro.sim.fingerprint import SIM_COUNTERS
from repro.store import CONFIG_TIER, STORE_COUNTERS, ResultStore, resolve_store
from repro.tuning.scheduler import (
    FAULT_COUNTERS,
    SCHEDULER_COUNTERS,
    SIMULATE,
    STATIC,
    STORE_DELTA_KEY,
    OnResult,
    RetryPolicy,
    SchedulerError,
    SweepScheduler,
)
from repro.tuning.space import Configuration

logger = logging.getLogger(__name__)

Evaluate = Callable[[Configuration], MetricReport]
Simulate = Callable[[Configuration], float]

#: A static-stage cache entry: (metrics, invalid_reason) — exactly one
#: of the two is populated.
StaticEntry = Tuple[Optional[MetricReport], Optional[str]]
#: A ``config``-tier store entry: (static entry, measured seconds),
#: either half ``None`` until that stage has produced it.
ConfigEntry = Tuple[Optional[StaticEntry], Optional[float]]


@dataclasses.dataclass
class EvaluatedConfig:
    """One configuration's static metrics and (optional) measured time."""

    config: Configuration
    metrics: Optional[MetricReport] = None
    seconds: Optional[float] = None
    invalid_reason: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        return self.invalid_reason is None


def config_key(config: Configuration) -> str:
    """Stable string form of a configuration, independent of key order.

    Sorted-key JSON of the parameter mapping; values outside the JSON
    types fall back to ``repr``.  In memory the engine keys caches by
    the (hashable) configuration itself; this string is the
    configuration's share of the result store's ``config``-tier key
    (:meth:`repro.apps.base.Application.result_key`), so it must be
    the same in every process.
    """
    return json.dumps(dict(config), sort_keys=True, default=repr)


#: the engine's own counters, zero-filled (wall times are floats)
ENGINE_COUNTERS = {
    "static_evaluations": 0,     # underlying evaluate() calls
    "static_cache_hits": 0,      # evaluate requests served from memory
    "simulations": 0,            # underlying simulate() calls
    "simulation_cache_hits": 0,  # simulate requests served from memory
    "evaluate_seconds": 0.0,     # wall time in the static stage
    "simulate_seconds": 0.0,     # wall time in the measurement stage
    "pool_batches": 0,           # batches dispatched to the pool
    "pool_fallbacks": 0,         # pool -> serial degradations
    "serial_fallback_tasks": 0,  # tasks that exhausted pool retries
}
#: counters pool workers ship home as per-task deltas: the simulator
#: cache's and the store's, counted in a worker's private copies
_WORKER_COUNTERS = {**SIM_COUNTERS, **STORE_COUNTERS}
#: state the stats carry as-is rather than difference
_STATE = ("workers", "pool_fallback_reason")


class EngineStats:
    """Read-only telemetry of one engine at one moment.

    Built by :attr:`ExecutionEngine.stats` in one pass over the names
    of its sources: the engine's :data:`ENGINE_COUNTERS`, the
    scheduler's fault counters, and the simulator-cache and store
    counters (:data:`_WORKER_COUNTERS`, in-process counts plus the
    merged pool-worker deltas).  Every counter is an attribute; the
    view is detached, so later counting never changes it.
    """

    def __init__(self, values: Dict[str, Any]) -> None:
        self.__dict__.update(values)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"EngineStats is read-only; count through the owning "
            f"component's registry, not {name!r}"
        )

    @classmethod
    def zeros(cls, workers: int) -> "EngineStats":
        """Every counter zero — the per-sweep baseline of work not done."""
        return cls({
            "workers": workers,
            **ENGINE_COUNTERS,
            "pool_fallback_reason": None,
            **FAULT_COUNTERS,
            **_WORKER_COUNTERS,
        })

    @property
    def cache_hits(self) -> int:
        return self.static_cache_hits + self.simulation_cache_hits

    @property
    def fingerprint_hits(self) -> int:
        return (
            self.fingerprint_resource_hits
            + self.fingerprint_trace_hits
            + self.fingerprint_sm_hits
        )

    @property
    def fault_recoveries(self) -> int:
        """Failed task attempts the scheduler absorbed without losing work."""
        return self.task_errors + self.task_timeouts + self.worker_crashes

    def as_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["cache_hits"] = self.cache_hits
        out["fingerprint_hits"] = self.fingerprint_hits
        out["fault_recoveries"] = self.fault_recoveries
        return out

    def snapshot(self) -> "EngineStats":
        """The view itself: it is already detached."""
        return self

    def delta_since(self, before: "EngineStats") -> Dict[str, Any]:
        """Per-request counter deltas against an earlier snapshot.

        A resident engine's counters are lifetime totals; a service
        reporting per-sweep telemetry subtracts the snapshot taken at
        the request boundary.  Counters are differenced (derived sums
        like ``cache_hits`` difference exactly, being linear);
        ``workers`` and ``pool_fallback_reason`` describe current state
        and are carried through as-is.
        """
        delta = self.as_dict()
        for name, prior in before.as_dict().items():
            if name not in _STATE:
                delta[name] -= prior
        return delta

    def summary(self) -> str:
        text = (
            f"workers={self.workers} evals={self.static_evaluations} "
            f"sims={self.simulations} cache_hits={self.cache_hits} "
            f"fp_hits={self.fingerprint_hits} "
            f"compile_hits={self.compile_hits} "
            f"eval_wall={self.evaluate_seconds:.3f}s "
            f"sim_wall={self.simulate_seconds:.3f}s"
        )
        if self.fault_recoveries:
            text += (
                f" retries={self.task_retries}"
                f" timeouts={self.task_timeouts}"
                f" crashes={self.worker_crashes}"
            )
        if self.workers_quarantined:
            text += f" quarantined={self.workers_quarantined}"
        if self.serial_fallback_tasks:
            text += f" serial_fallback_tasks={self.serial_fallback_tasks}"
        if self.pool_fallbacks:
            text += f" pool_fallbacks={self.pool_fallbacks}"
        if self.store_hits or self.store_misses:
            text += (
                f" store_hits={self.store_hits}"
                f" store_misses={self.store_misses}"
            )
            if self.store_evictions:
                text += f" store_evictions={self.store_evictions}"
            if self.store_corrupt:
                text += f" store_corrupt={self.store_corrupt}"
        return text


def add_memo_hits(delta: Dict[str, Any], static: int, simulations: int) -> Dict[str, Any]:
    """Count requests a memo answered outside the engine into a stats
    delta (in place): the static and simulation cache hits the engine
    would have counted serving them itself — how the service's fast
    lane reports the sweeps it answers on the event loop."""
    delta["static_cache_hits"] += static
    delta["simulation_cache_hits"] += simulations
    delta["cache_hits"] = delta["static_cache_hits"] + delta["simulation_cache_hits"]
    return delta


class ExecutionEngine:
    """Owns one configuration space's evaluation and measurement.

    Parameters
    ----------
    evaluate:
        ``config -> MetricReport``; may raise :class:`LaunchError` for
        configurations that cannot launch (recorded, not propagated).
    simulate:
        ``config -> seconds``; the expensive measurement.
    workers:
        Worker-pool width for sweep fan-out.  ``1`` (default) runs
        everything in-process; ``None`` reads ``REPRO_WORKERS`` from
        the environment (default 1).
    sim_cache:
        Optional :class:`repro.sim.fingerprint.SimulationCache` whose
        counters :attr:`stats` reports (``for_app`` wires up the
        application's cache automatically).  The engine never reads or
        writes the cache itself — the simulate callable owns it.
    retry_policy:
        Optional :class:`~repro.tuning.scheduler.RetryPolicy` for the
        sweep scheduler (timeout, retry budget, backoff, quarantine
        threshold).  ``None`` builds one from the environment
        (``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``).
    fault_spec:
        Optional deterministic fault-injection spec (see
        :mod:`repro.obs.faults`) threaded into pool workers.  ``None``
        reads ``REPRO_FAULTS`` from the environment; injected faults
        never fire on the in-process serial path, so a faulted sweep
        still completes with bit-identical results.
    store:
        Optional persistent result store layered under ``sim_cache``:
        a :class:`~repro.store.ResultStore`, a directory path, or
        ``None`` to read ``REPRO_STORE`` from the environment (unset
        disables the durable tier).  The engine (parent process) owns
        write-back; pool workers read through and ship fresh artifacts
        home with their counter deltas.  Results are bit-identical
        with the store absent, cold, or warm — it only changes how
        fast they arrive.
    result_key:
        ``config -> str`` naming a configuration's entry in the store's
        ``config`` tier (``for_app`` passes
        :meth:`~repro.apps.base.Application.result_key`).  With a store
        and this key, each static entry and measured time is written
        there as it arrives (parent process only), and read back on a
        memo miss before any work is dispatched.  Without it — an
        engine over bare callables — there is no config tier.
    """

    def __init__(
        self,
        evaluate: Evaluate,
        simulate: Simulate,
        workers: Optional[int] = 1,
        sim_cache=None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_spec: Optional[str] = None,
        store: Union[ResultStore, str, None] = None,
        group_key: Optional[Callable[[Configuration], Any]] = None,
        result_key: Optional[Callable[[Configuration], str]] = None,
    ) -> None:
        self._evaluate = evaluate
        self._simulate = simulate
        #: ``config -> key``: pending configurations with equal non-None
        #: keys share a trace program and form one measurement task (see
        #: ``_tasks``).  Results and cache counters are identical to
        #: one task per configuration — grouping only changes dispatch
        #: granularity.
        self._group_key = group_key
        self._sim_cache = sim_cache
        self.store = resolve_store(store)
        if self.store is not None:
            if sim_cache is not None and hasattr(sim_cache, "attach_store"):
                sim_cache.attach_store(self.store, write_back=True)
            else:
                logger.warning(
                    "a result store was configured (%r) but this engine "
                    "has no simulator cache to layer it under; the "
                    "store will be ignored", self.store.path,
                )
                self.store = None
        elif sim_cache is not None:
            # The cache may have arrived with its own store attached
            # (e.g. the application wired one up); surface it.
            self.store = getattr(sim_cache, "store", None)
        self.workers = resolve_workers(workers)
        self._result_key = result_key if self.store is not None else None
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy.from_env()
        )
        if fault_spec is None:
            fault_spec = os.environ.get(FAULTS_ENV) or None
        # Parse eagerly so a malformed REPRO_FAULTS fails at engine
        # construction with a named error, not inside a forked worker.
        FaultPlan.from_spec(fault_spec)
        self.fault_spec = fault_spec
        #: this engine's counters, plus the deltas pool workers ship
        #: home (their simulator-cache and store counts)
        self.counts = Counters({**ENGINE_COUNTERS, **_WORKER_COUNTERS})
        #: the registry every scheduler this engine builds counts into,
        #: so fault totals outlive a torn-down pool
        self._scheduler_counts = Counters(SCHEDULER_COUNTERS)
        #: why the pool last degraded to in-process execution
        self.pool_fallback_reason: Optional[str] = None
        self._static: Dict[Configuration, StaticEntry] = {}
        #: configurations whose static entry was just produced by a
        #: batch prefill (pool fan-out or a config-tier read) and not
        #: yet handed to a caller.  The first ``evaluate_config`` for
        #: such a config consumes the mark instead of counting a cache
        #: hit, so EngineStats is bit-identical across worker counts.
        self._static_fresh: set = set()
        self._seconds: Dict[Configuration, float] = {}
        #: config-tier key of every configuration whose entry this
        #: engine has read (hit or miss) — each is read at most once
        self._result_keys: Dict[Configuration, str] = {}
        #: measured times read from the config tier, not yet claimed
        self._stored_seconds: Dict[Configuration, float] = {}
        self._scheduler: Optional[SweepScheduler] = None
        self._pool_broken = False

    @classmethod
    def for_app(
        cls,
        app,
        workers: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        fault_spec: Optional[str] = None,
        store: Union[ResultStore, str, None] = None,
    ) -> "ExecutionEngine":
        """Engine around an :class:`~repro.apps.base.Application`."""
        return cls(
            app.evaluate,
            app.simulate,
            workers=workers,
            sim_cache=getattr(app, "sim_cache", None),
            retry_policy=retry_policy,
            fault_spec=fault_spec,
            store=store,
            group_key=getattr(app, "trace_group_key", None),
            result_key=getattr(app, "result_key", None),
        )

    @property
    def stats(self) -> EngineStats:
        """Every counter now, read in one pass over the names.

        Safe to call from another thread while this engine counts:
        every registry's key set is fixed when it is built, so reads
        never race a dict that changes size.
        """
        own = self.counts
        scheduler = self._scheduler_counts
        cache = self._sim_cache.counters() if self._sim_cache is not None else {}
        values: Dict[str, Any] = {"workers": self.workers}
        for name in ENGINE_COUNTERS:
            values[name] = own[name]
        values["pool_fallback_reason"] = self.pool_fallback_reason
        for name in FAULT_COUNTERS:
            values[name] = scheduler[name]
        for name in _WORKER_COUNTERS:
            values[name] = own[name] + cache.get(name, 0)
        return EngineStats(values)

    # ------------------------------------------------------------------
    # Lifecycle.

    def close(self) -> None:
        """Shut down the worker pool (caches and stats survive)."""
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def begin_request(self) -> EngineStats:
        """Mark a request boundary on a resident engine.

        The one-shot CLI builds an engine per sweep, so lifecycle
        state can never leak between unrelated sweeps; a long-lived
        daemon reuses one engine and needs the boundary made explicit:

        * the scheduler's per-slot failure counts reset and lost
          worker slots respawn (``SweepScheduler.begin_request``);
        * a pool broken by a *previous* request gets a fresh chance —
          within one request "never rebuild" still holds, so a sweep
          cannot flap between pooled and serial execution;
        * the returned :class:`EngineStats` is the baseline for this
          request's ``delta_since`` telemetry.

        Caches (memo tables, simulator cache, store) deliberately
        survive — staying warm across requests is the daemon's point.
        """
        self._pool_broken = False
        if self._scheduler is not None:
            self._scheduler.begin_request()
        return self.stats

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Static stage.

    def evaluate_config(self, config: Configuration) -> EvaluatedConfig:
        """One configuration through the static-metric cache."""
        if config not in self._static:
            self._read_stored([config])
        cached = self._static.get(config)
        if cached is None:
            try:
                cached = (self._evaluate(config), None)
            except LaunchError as error:
                cached = (None, str(error))
            self._record_static(config, cached)
        elif config in self._static_fresh:
            # First claim of a prefilled result: the evaluation (or
            # the store hit) was counted when the prefill produced it.
            self._static_fresh.discard(config)
        else:
            self.counts.incr("static_cache_hits")
        metrics, reason = cached
        return EvaluatedConfig(config=config, metrics=metrics, invalid_reason=reason)

    def evaluate_all(self, configs: Sequence[Configuration]) -> List[EvaluatedConfig]:
        """Static metrics for every configuration; invalids recorded, kept.

        Each call returns fresh :class:`EvaluatedConfig` wrappers (so
        strategies can attach measured times independently) backed by
        the shared metric cache: the underlying ``evaluate`` runs at
        most once per configuration over the engine's lifetime.

        Memo misses are first looked up in the store's ``config`` tier
        (one bulk read); what remains fans out across the sweep
        scheduler when ``workers > 1`` (the same worker pool, retry
        policy, and fallback rules as the measurement stage); results
        are keyed by configuration and claimed in request order, so
        reports, invalid reasons, *and* the EngineStats counters are
        bit-identical to a serial run.  Tasks the scheduler abandons
        (retry budget exhausted) are evaluated in-process by
        ``evaluate_config`` below.
        """
        started = time.perf_counter()
        with span("engine.evaluate_batch", cat="engine",
                  configs=len(configs)) as batch_span:
            missing: List[Configuration] = []
            seen = set()
            for config in configs:
                if config in self._static or config in seen:
                    continue
                seen.add(config)
                missing.append(config)
            self._read_stored(missing)
            missing = [config for config in missing if config not in self._static]
            batch_span.add_args(missing=len(missing))
            if self.workers > 1 and len(missing) > 1:
                self._evaluate_missing_pooled(missing)
            entries = [self.evaluate_config(config) for config in configs]
        self.counts.incr("evaluate_seconds", time.perf_counter() - started)
        return entries

    def _record_static(self, config: Configuration, cached: StaticEntry) -> None:
        self._static[config] = cached
        self.counts.incr("static_evaluations")
        self._write_stored(config)

    def _evaluate_missing_pooled(self, configs: List[Configuration]) -> None:
        """Fan the static stage out across the sweep scheduler.

        Fills ``_static`` (fresh-marked) as results stream in; tasks
        the scheduler abandons are left unfilled and handled by the
        in-process ``evaluate_config`` path, where injected faults
        never fire and real errors surface normally.
        """

        def record(position, payload, delta):
            self._merge_pool_delta(delta)
            self._record_static(configs[position], payload)
            self._static_fresh.add(configs[position])

        self._run_pooled(STATIC, configs, record)

    # ------------------------------------------------------------------
    # Memo peeks (the service fast lane's read-only view).

    def peek_static(self, config: Configuration) -> Optional[StaticEntry]:
        """The memoized static entry, or ``None`` — no evaluation, no
        counters.  A plain dict read (GIL-atomic), safe to call from
        the event loop while the executor thread owns the engine."""
        return self._static.get(config)

    def peek_seconds(self, config: Configuration) -> Optional[float]:
        """The memoized measured time, or ``None`` — no simulation, no
        counters.  Same safety contract as :meth:`peek_static`."""
        return self._seconds.get(config)

    # ------------------------------------------------------------------
    # Measurement stage.

    def seconds_for(self, configs: Sequence[Configuration]) -> List[float]:
        """Measured seconds for each configuration, in request order.

        Cache misses are simulated (through the scheduler when
        ``workers > 1``); hits are returned from memory or the store's
        ``config`` tier.  The returned list always aligns with
        ``configs``, so callers see deterministic ordering regardless
        of worker count.
        """
        started = time.perf_counter()
        with span("engine.simulate_batch", cat="engine",
                  requested=len(configs)) as batch_span:
            missing: List[Configuration] = []
            seen = set()
            for config in configs:
                if config in self._seconds:
                    self.counts.incr("simulation_cache_hits")
                    continue
                if config not in seen:
                    seen.add(config)
                    missing.append(config)
            self._read_stored(missing)
            for config in missing:
                restored = self._stored_seconds.pop(config, None)
                if restored is not None:
                    self._seconds[config] = restored
            missing = [config for config in missing if config not in self._seconds]
            batch_span.add_args(missing=len(missing))
            if missing:
                self._simulate_missing(missing)
        self.counts.incr("simulate_seconds", time.perf_counter() - started)
        return [self._seconds[config] for config in configs]

    def time_entries(self, entries: Sequence[EvaluatedConfig]) -> None:
        """Fill ``entry.seconds`` for every entry (the total is summed
        by :func:`repro.tuning.search.assemble_result`)."""
        seconds = self.seconds_for([entry.config for entry in entries])
        for entry, value in zip(entries, seconds):
            entry.seconds = value

    def _tasks(self, configs: List[Configuration]) -> List[List[Configuration]]:
        """Partition pending configs into measurement tasks.

        Configurations whose ``group_key`` matches (they share a trace
        program) form one task; every other configuration — no key
        function, or a ``None`` key — is a task of its own.  Tasks come
        in request order of their first configuration.
        """
        tasks: List[List[Configuration]] = []
        by_key: Dict[Any, List[Configuration]] = {}
        for config in configs:
            key = None if self._group_key is None else self._group_key(config)
            if key is None:
                tasks.append([config])
            elif key in by_key:
                by_key[key].append(config)
            else:
                by_key[key] = [config]
                tasks.append(by_key[key])
        return tasks

    def _simulate_missing(self, configs: List[Configuration]) -> None:
        """Measure every config, recording (and storing) results as
        they stream in — an interrupt mid-batch loses only the
        measurements still in flight.

        With a pool, each task (one trace program's configurations)
        is one dispatch; tasks the scheduler abandons — and every task
        when there is no pool — run in-process in request order, so a
        real failure surfaces deterministically.
        """
        tasks = self._tasks(configs)

        def record(position, seconds, delta):
            self._merge_pool_delta(delta)
            for config, value in zip(tasks[position], seconds):
                self._record_time(config, value)

        serial = tasks
        if self.workers > 1 and len(tasks) > 1:
            serial = self._run_pooled(SIMULATE, tasks, record)
        for task in serial:
            for config in task:
                with span("engine.simulate", cat="engine", config=dict(config)):
                    self._record_time(config, self._simulate(config))

    def _run_pooled(self, stage: str, payloads: List[Any],
                    record: OnResult) -> List[Any]:
        """Run ``payloads`` through the sweep scheduler as one batch.

        ``record`` receives each result as it streams in.  Returns the
        payloads left for the in-process path: those the scheduler
        abandoned, or all of them when no pool is available.  Degrades
        loudly when tasks fell back or the whole pool collapsed.
        """
        scheduler = self._ensure_scheduler()
        if scheduler is None:
            return payloads
        self.counts.incr("pool_batches")
        with span("engine.pool_dispatch", cat="engine", stage=stage,
                  tasks=len(payloads), workers=scheduler.active_workers):
            abandoned = scheduler.run(stage, payloads, record)
        if abandoned:
            self.counts.incr("serial_fallback_tasks", len(abandoned))
            logger.warning(
                "%d %s task(s) exhausted the scheduler's retries "
                "(last failure: %s); running them in-process",
                len(abandoned), stage, scheduler.last_failure,
            )
        if scheduler.active_workers == 0:
            self._pool_failure(
                f"all {self.workers} workers quarantined "
                f"(last failure: {scheduler.last_failure})"
            )
        return [payloads[index] for index in abandoned]

    def _pool_failure(self, reason: str) -> None:
        """Record a pool→serial degradation and reap the scheduler.

        Once recorded, the engine never tries to rebuild a pool: the
        rest of the run is in-process, and the degradation is visible
        in the stats, the log, and the harness report.
        """
        scheduler, self._scheduler = self._scheduler, None
        self._pool_broken = True
        if scheduler is not None:
            scheduler.close()
        self.counts.incr("pool_fallbacks")
        self.pool_fallback_reason = reason
        logger.warning(
            "worker pool disabled, falling back to in-process "
            "execution: %s", reason,
        )

    def _merge_pool_delta(self, delta: Optional[Dict[str, Any]]) -> None:
        """Fold one worker result's counter delta into this engine's
        registry.

        The reserved :data:`~repro.tuning.scheduler.STORE_DELTA_KEY`
        entry — artifacts the worker computed but (deliberately) never
        wrote to disk — is absorbed into the parent's cache, which
        owns all store write-back.
        """
        if not delta:
            return
        entries = delta.pop(STORE_DELTA_KEY, None)
        if entries and self._sim_cache is not None:
            self._sim_cache.absorb_store_entries(entries)
        if delta:
            self.counts.merge(delta)

    def _record_time(self, config: Configuration, seconds: float) -> None:
        self._seconds[config] = seconds
        self.counts.incr("simulations")
        self._write_stored(config)

    def _ensure_scheduler(self) -> Optional[SweepScheduler]:
        if self._pool_broken:
            return None
        if self._scheduler is None:
            scheduler = SweepScheduler(
                self.workers,
                self._simulate,
                self._evaluate,
                policy=self.retry_policy,
                fault_spec=self.fault_spec,
                counts=self._scheduler_counts,
            )
            try:
                scheduler.start()
            except (SchedulerError, OSError, ValueError) as error:
                # Worker spawn can fail on fork-restricted platforms
                # or resource exhaustion; degrade loudly, not silently.
                self._pool_failure(
                    f"could not start a {self.workers}-worker "
                    f"sweep scheduler: {error}"
                )
                return None
            self._scheduler = scheduler
        return self._scheduler

    # ------------------------------------------------------------------
    # The store's config tier.

    def _read_stored(self, configs: Sequence[Configuration]) -> None:
        """Read the ``config``-tier entries of ``configs`` (one bulk read).

        Only configurations this engine has never asked the store about
        are read, so each entry costs at most one read per engine and
        the store counters stay identical for every worker count.
        Restored static entries land in the memo fresh-marked (the
        store hit already counted them); restored times wait in
        ``_stored_seconds`` until ``seconds_for`` claims them.
        """
        if self._result_key is None:
            return
        wanted: Dict[str, Configuration] = {}
        for config in configs:
            if config not in self._result_keys:
                key = self._result_keys[config] = self._result_key(config)
                wanted[key] = config
        if not wanted:
            return
        for key, (static, seconds) in self.store.load_many(
            CONFIG_TIER, wanted
        ).items():
            config = wanted[key]
            if static is not None and config not in self._static:
                self._static[config] = static
                self._static_fresh.add(config)
            if seconds is not None and config not in self._seconds:
                self._stored_seconds[config] = seconds

    def _write_stored(self, config: Configuration) -> None:
        """Persist one configuration's results as they stand now."""
        if self._result_key is None:
            return
        # Every result follows its configuration's read, so the key
        # is already known.
        entry: ConfigEntry = (self._static.get(config), self._seconds.get(config))
        self.store.store(CONFIG_TIER, self._result_keys[config], entry)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker count; ``None`` defers to ``REPRO_WORKERS``.

    A malformed ``REPRO_WORKERS`` raises :class:`ValueError` naming
    the variable and the offending value (a bare ``int()`` traceback
    gives an operator nothing to act on); negative counts are clamped
    to 1 with a warning rather than silently running serial.
    """
    from_env = None
    if workers is None:
        from_env = os.environ.get("REPRO_WORKERS", "1") or "1"
        try:
            workers = int(from_env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS={from_env!r} is not a valid worker "
                "count (expected an integer)"
            ) from None
    workers = int(workers)
    if workers < 0:
        logger.warning(
            "negative worker count %d%s; clamping to 1 (serial)",
            workers,
            " from REPRO_WORKERS" if from_env is not None else "",
        )
        return 1
    return max(1, workers)
