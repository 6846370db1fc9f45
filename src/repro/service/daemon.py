"""The long-lived tuning daemon: autotuning-as-a-service.

One resident :class:`~repro.tuning.engine.ExecutionEngine` (plus its
:class:`~repro.tuning.scheduler.SweepScheduler` pool and attached
:class:`~repro.store.ResultStore`) per *runtime* — an application plus
its ``SimConfig`` overrides — serves every sweep submitted over HTTP.
Compile results, warp traces, and SM replays stay warm across
requests; the engine's request boundary (``begin_request``) resets
only lifecycle state, never caches.

Bit-identity contract: a sweep served by the daemon returns exactly
the payload the one-shot CLI path (:func:`run_sweep` on a fresh
engine — ``python -m repro.service run-local``) produces for the same
request.  Both go through the *same* selection
(:func:`repro.tuning.search.select_timed`) and the same sequential
seconds accumulation, so chunked timing with cancellation checks
cannot drift from the strategy functions.

Concurrency model: the asyncio event loop owns all bookkeeping (job
table, in-flight registry); each runtime executes sweeps on its own
single-thread executor, so one engine is never entered concurrently
while distinct runtimes proceed in parallel.  Overlapping sweeps
dedupe through :class:`~repro.service.registry.InflightRegistry`: the
second requester awaits the first's future, then reads warm caches.

The warm-path fast lane: before dispatching to the executor,
``_run_job`` probes the resident engine's memo (read-only
``peek_static`` / ``peek_seconds`` — plain dict reads, safe against
the executor thread).  A *fully-warm* sweep — every static entry and
every selected measurement memoized — is answered on the event loop
itself in cancellable chunks: no thread handoff, no scheduler, and
bit-identical results because selection still goes through
:func:`select_timed` and the total through the same sequential sum.
A *partially-warm* sweep (statics memoized, some measurements
missing) claims and dispatches only its misses to the executor, then
serves the warm remainder on the loop.  Because fully-warm lanes
never enter the executor, warm sweeps for the *same* runtime overlap
freely — the single-thread-per-engine constraint only ever applied to
sweeps that compute.  A daemon-wide
:class:`~repro.store.DecodedCache` sits between every runtime's
``SimulationCache`` and the store, so repeated store reads never
re-hash or re-unpickle a payload.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.payload import search_result_payload
from repro.obs.metrics import Counters
from repro.obs.trace import span
from repro.service.http import (
    KEEPALIVE_COUNTERS,
    HTTPError,
    Request,
    Response,
    Router,
    json_response,
    serve,
)
from repro.service.registry import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    InflightRegistry,
    JobTable,
    SweepCancelled,
    SweepJob,
)
from repro.store import DecodedCache
from repro.tuning.engine import (
    EngineStats,
    EvaluatedConfig,
    ExecutionEngine,
    add_memo_hits,
    config_key,
)
from repro.tuning.search import (
    SearchResult,
    best_entry,
    select_timed,
)
from repro.tuning.space import Configuration
from repro.tuning.strategies import (
    StrategyError,
    build_strategy,
    get_spec,
    request_kwargs,
)

logger = logging.getLogger(__name__)

__all__ = [
    "RequestError",
    "SweepRequest",
    "TuningService",
    "parse_sweep_request",
    "run_sweep",
]

#: port knob for ``python -m repro.service serve`` (0 = ephemeral)
SERVICE_PORT_ENV = "REPRO_SERVICE_PORT"
DEFAULT_CHUNK_SIZE = 16

#: the service's counters, zero-filled: submissions, sweep outcomes,
#: the fast lane's share, executor dispatches, and in-flight dedupes
#: (the HTTP layer counts keep-alive traffic into the same registry)
SERVICE_COUNTERS = {
    "requests_total": 0,
    "requests_rejected": 0,
    "sweeps_submitted": 0,
    "sweeps_completed": 0,
    "sweeps_cancelled": 0,
    "sweeps_cancel_requested": 0,
    "sweeps_failed": 0,
    "dedupe_hits": 0,
    "executor_dispatches": 0,
    "fastlane_sweeps": 0,
    "fastlane_partial": 0,
    "fastlane_configs": 0,
    **KEEPALIVE_COUNTERS,
}


class RequestError(ValueError):
    """A sweep submission that cannot be honored (HTTP 400)."""


@dataclasses.dataclass
class SweepRequest:
    """One validated sweep submission, app-resolved and config-expanded."""

    app_name: str
    strategy: str
    configs: List[Configuration]
    sim_overrides: Dict[str, Any]
    select_kwargs: Dict[str, Any]
    chunk_size: int
    #: the normalized submission echoed back on status endpoints
    echo: Dict[str, Any]
    #: "selection" (select_timed subset) or "adaptive" (budgeted zoo
    #: strategy) — from the registry spec; decides the execution path
    kind: str = "selection"

    @property
    def runtime_key(self) -> str:
        """Identity of the resident engine this request routes to."""
        if not self.sim_overrides:
            return self.app_name
        digest = hashlib.sha256(
            json.dumps(self.sim_overrides, sort_keys=True, default=repr)
            .encode("utf-8")
        ).hexdigest()[:12]
        return f"{self.app_name}@{digest}"

    @property
    def requested_sample_size(self) -> Optional[int]:
        if self.strategy == "random":
            return self.select_kwargs.get("sample_size", 0)
        return None


def parse_sweep_request(
    payload: Any, apps_by_name: Dict[str, Any]
) -> SweepRequest:
    """Validate one ``POST /sweeps`` body against the known spaces.

    Raises :class:`RequestError` naming exactly what was wrong — the
    daemon maps it to a 400, ``run-local`` prints it.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    strategy = payload.get("strategy", "pareto")
    try:
        spec = get_spec(strategy)
    except StrategyError as error:
        raise RequestError(str(error)) from None
    # The accepted field set is base fields plus whatever the registry
    # declares for this strategy — adding a StrategySpec is all it
    # takes for its knobs to validate here.
    unknown = set(payload) - (
        {"app", "strategy", "configs", "limit", "sim_overrides",
         "chunk_size"} | set(spec.fields)
    )
    if unknown:
        raise RequestError(
            f"unknown request fields for strategy {strategy!r}: "
            f"{sorted(unknown)}"
        )
    app_name = payload.get("app")
    if app_name not in apps_by_name:
        raise RequestError(
            f"unknown app {app_name!r}; expected one of "
            f"{sorted(apps_by_name)}"
        )
    app = apps_by_name[app_name]
    overrides = payload.get("sim_overrides") or {}
    if not isinstance(overrides, dict):
        raise RequestError("sim_overrides must be an object")
    space = app.space()
    configs = _resolve_configs(payload, space)
    try:
        select_kwargs = request_kwargs(spec, payload)
    except StrategyError as error:
        raise RequestError(str(error)) from None
    chunk_size = payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
    if not isinstance(chunk_size, int) or chunk_size < 1:
        raise RequestError("chunk_size must be a positive integer")
    echo: Dict[str, Any] = {"app": app_name, "strategy": strategy}
    if payload.get("configs") is not None:
        echo["configs"] = len(configs)
    if payload.get("limit") is not None:
        echo["limit"] = payload["limit"]
    if overrides:
        echo["sim_overrides"] = dict(overrides)
    echo.update(select_kwargs)
    return SweepRequest(
        app_name=app_name,
        strategy=strategy,
        configs=configs,
        sim_overrides=dict(overrides),
        select_kwargs=select_kwargs,
        chunk_size=chunk_size,
        echo=echo,
        kind=spec.kind,
    )


def _resolve_configs(payload: Dict[str, Any], space) -> List[Configuration]:
    explicit = payload.get("configs")
    limit = payload.get("limit")
    if limit is not None and (not isinstance(limit, int) or limit < 1):
        raise RequestError("limit must be a positive integer")
    if explicit is not None:
        if limit is not None:
            raise RequestError("pass either configs or limit, not both")
        if not isinstance(explicit, list) or not explicit:
            raise RequestError("configs must be a non-empty array of objects")
        parameters = space.parameters
        configs = []
        for index, mapping in enumerate(explicit):
            if not isinstance(mapping, dict):
                raise RequestError(f"configs[{index}] is not an object")
            if set(mapping) != set(parameters):
                raise RequestError(
                    f"configs[{index}] parameters {sorted(mapping)} do not "
                    f"match the space's {sorted(parameters)}"
                )
            for name, value in mapping.items():
                if value not in parameters[name]:
                    raise RequestError(
                        f"configs[{index}].{name}={value!r} is not one of "
                        f"{parameters[name]}"
                    )
            configs.append(Configuration(mapping))
        return configs
    configs = space.configurations()
    if limit is not None:
        configs = configs[:limit]
    if not configs:
        raise RequestError("the requested space is empty")
    return configs


def run_sweep(
    engine: ExecutionEngine,
    request: SweepRequest,
    *,
    cancel_check: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, Any]:
    """Execute one sweep on ``engine``; the shared CLI/daemon core.

    Identical to the one-shot strategy functions by construction:
    selection goes through :func:`select_timed` and ``measured_seconds``
    is accumulated in one sequential loop over the selected entries —
    the same floating-point summation order as
    ``ExecutionEngine.time_entries`` — so the payload is bit-identical
    whether timing ran in one call or in cancellation-checkable chunks.
    """

    def cancelled() -> bool:
        return cancel_check is not None and cancel_check()

    with span("service.sweep", cat="service", app=request.app_name,
              strategy=request.strategy, configs=len(request.configs)):
        if cancelled():
            raise SweepCancelled(request.app_name)
        if request.kind == "adaptive":
            # Zoo strategies drive their own measurement loop; the
            # cancel edge threads through the progress callback, which
            # fires at every batch boundary.
            def checkpoint(done: int, total: int) -> None:
                if cancelled():
                    raise SweepCancelled(request.app_name)
                if progress is not None:
                    progress(done, total)

            strategy = build_strategy(request.strategy)
            result = strategy.run(
                request.configs, engine,
                progress=checkpoint, **request.select_kwargs,
            )
            return search_result_payload(result)
        evaluated = engine.evaluate_all(request.configs)
        selected = select_timed(
            request.strategy, evaluated, **request.select_kwargs
        )
        if progress is not None:
            progress(0, len(selected))
        for start in range(0, len(selected), request.chunk_size):
            if cancelled():
                raise SweepCancelled(request.app_name)
            chunk = selected[start:start + request.chunk_size]
            engine.time_entries(chunk)
            if progress is not None:
                progress(min(start + len(chunk), len(selected)),
                         len(selected))
        total = 0.0
        for entry in selected:
            total += entry.seconds
        result = SearchResult(
            strategy=request.strategy,
            evaluated=evaluated,
            timed=selected,
            best=best_entry(selected, request.strategy),
            measured_seconds=total,
            requested_sample_size=request.requested_sample_size,
        )
    return search_result_payload(result)


class AppRuntime:
    """One resident engine: an app instance plus its serial executor."""

    def __init__(
        self,
        key: str,
        base_app,
        sim_overrides: Dict[str, Any],
        *,
        workers: Optional[int],
        store: Optional[str],
        decoded: Optional[DecodedCache] = None,
    ) -> None:
        self.key = key
        # A fresh instance per runtime: per-request overrides on a
        # shared app would poison its time/fingerprint caches.
        self.app = type(base_app)()
        if sim_overrides:
            self.app.sim_overrides = dict(sim_overrides)
        self.engine = ExecutionEngine.for_app(
            self.app, workers=workers, store=store,
        )
        # The daemon-wide decoded-entry cache sits between this
        # runtime's SimulationCache and the store: sibling runtimes
        # reading the same fingerprints skip the open/sha256/unpickle.
        sim_cache = getattr(self.app, "sim_cache", None)
        if decoded is not None and sim_cache is not None:
            sim_cache.set_decoded_cache(decoded)
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"sweep-{key}"
        )

    def close(self) -> None:
        self.executor.shutdown(wait=True)
        self.engine.close()


class TuningService:
    """The daemon: HTTP handlers over resident runtimes."""

    def __init__(
        self,
        apps: Optional[Sequence[Any]] = None,
        *,
        workers: Optional[int] = 1,
        store: Optional[str] = None,
        keep_alive: bool = False,
        fastlane: bool = True,
    ) -> None:
        if apps is None:
            from repro.apps import all_applications

            apps = all_applications()
        self.apps_by_name = {app.name: app for app in apps}
        self.workers = workers
        self.store = store
        self.keep_alive = keep_alive
        #: probe the resident memo before dispatching to the executor;
        #: ``False`` forces every sweep down the engine path (the
        #: bit-identity oracle in tests)
        self.fastlane = fastlane
        self.jobs = JobTable()
        self.inflight = InflightRegistry()
        self.runtimes: Dict[str, AppRuntime] = {}
        self.counters = Counters(SERVICE_COUNTERS)
        self.decoded = DecodedCache()
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle.

    def router(self) -> Router:
        router = Router()
        router.add("POST", "/sweeps", self.handle_submit)
        router.add("GET", "/sweeps", self.handle_list)
        router.add("GET", "/sweeps/{job_id}", self.handle_status)
        router.add("GET", "/sweeps/{job_id}/results", self.handle_results)
        router.add("POST", "/sweeps/{job_id}/cancel", self.handle_cancel)
        router.add("DELETE", "/sweeps/{job_id}", self.handle_cancel)
        router.add("GET", "/healthz", self.handle_healthz)
        router.add("GET", "/metrics", self.handle_metrics)
        return router

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and listen; returns the (host, port) actually bound."""
        self._server = await serve(
            self.router(), host=host, port=port,
            keep_alive=self.keep_alive, counters=self.counters,
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Stop listening, cancel queued work, drain the runtimes."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for job in self.jobs.all():
            if job.state in (QUEUED, RUNNING):
                job.request_cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for runtime in self.runtimes.values():
            runtime.close()
        self.runtimes.clear()

    def _runtime_for(self, request: SweepRequest) -> AppRuntime:
        runtime = self.runtimes.get(request.runtime_key)
        if runtime is None:
            runtime = AppRuntime(
                request.runtime_key,
                self.apps_by_name[request.app_name],
                request.sim_overrides,
                workers=self.workers,
                store=self.store,
                decoded=self.decoded,
            )
            self.runtimes[request.runtime_key] = runtime
        return runtime

    # ------------------------------------------------------------------
    # Handlers.

    async def handle_submit(self, request: Request) -> Response:
        self.counters.incr("requests_total")
        try:
            sweep = parse_sweep_request(request.json(), self.apps_by_name)
        except RequestError as error:
            self.counters.incr("requests_rejected")
            raise HTTPError(400, str(error))
        job = self.jobs.create(sweep.runtime_key, sweep.echo)
        self.counters.incr("sweeps_submitted")
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, sweep)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return json_response(job.status_payload(), status=202)

    async def handle_list(self, request: Request) -> Response:
        del request
        return json_response(
            {"sweeps": [job.status_payload() for job in self.jobs.all()]}
        )

    async def handle_status(self, request: Request, job_id: str) -> Response:
        del request
        return json_response(self._job_or_404(job_id).status_payload())

    async def handle_results(self, request: Request, job_id: str) -> Response:
        del request
        job = self._job_or_404(job_id)
        if job.state in (QUEUED, RUNNING):
            raise HTTPError(409, f"sweep {job_id} is still {job.state}")
        if job.state != DONE or job.result is None:
            raise HTTPError(409, f"sweep {job_id} {job.state}: {job.error}")
        return json_response(
            {"id": job.id, "result": job.result, "stats": job.stats_delta}
        )

    async def handle_cancel(self, request: Request, job_id: str) -> Response:
        del request
        job = self._job_or_404(job_id)
        if job.state in (QUEUED, RUNNING):
            job.request_cancel()
            self.counters.incr("sweeps_cancel_requested")
        return json_response(job.status_payload(), status=202)

    async def handle_healthz(self, request: Request) -> Response:
        del request
        states = self.jobs.count_by_state()
        return json_response({
            "status": "ok",
            "runtimes": sorted(self.runtimes),
            "jobs": states,
            "inflight_keys": len(self.inflight),
        })

    async def handle_metrics(self, request: Request) -> Response:
        del request
        runtimes = {}
        for key, runtime in self.runtimes.items():
            stats = runtime.engine.stats.as_dict()
            if runtime.engine._scheduler is not None:
                stats["scheduler_lifetime"] = (
                    runtime.engine._scheduler.counts.as_dict()
                )
            runtimes[key] = stats
        # Service counters are listed once they have counted.
        service = {
            name: value for name, value in self.counters.as_dict().items()
            if value
        }
        return json_response({
            "service": service,
            "jobs": self.jobs.count_by_state(),
            "inflight_keys": len(self.inflight),
            "decoded_cache": self.decoded.counters(),
            "runtimes": runtimes,
        })

    def _job_or_404(self, job_id: str) -> SweepJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise HTTPError(404, f"no sweep named {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # Sweep execution.

    async def _run_job(self, job: SweepJob, sweep: SweepRequest) -> None:
        loop = asyncio.get_running_loop()
        runtime = self._runtime_for(sweep)
        # The fast-lane probe: can the resident memo answer (part of)
        # this sweep without the executor?  Read-only peeks — a racing
        # executor thread can only turn a miss into a hit, and a probe
        # miss just means the classic path runs.  Adaptive (zoo)
        # sweeps never probe: their timed subset depends on measured
        # times, not just the static memo, so only the engine path can
        # reproduce it.
        probe = (
            self._probe_memo(runtime.engine, sweep)
            if self.fastlane and sweep.kind == "selection" else None
        )
        owned: List[Tuple[str, str]] = []
        try:
            if probe is not None:
                entries, selected, missing = probe
                if missing:
                    # Claim only the misses: the warm portion is final
                    # memo state, invisible to other sweeps' claims.
                    missing_keys = list(dict.fromkeys(
                        (sweep.runtime_key, config_key(config))
                        for config in missing
                    ))
                    owned, waiting = self.inflight.claim(missing_keys)
                    if waiting:
                        job.dedupe_hits = len(waiting)
                        self.counters.incr("dedupe_hits", len(waiting))
                        await self._await_inflight(job, waiting)
                    if job.cancel_event.is_set():
                        raise SweepCancelled(job.id)
                    # The owning sweep may have measured some of our
                    # misses while we waited.
                    missing = [
                        config for config in missing
                        if runtime.engine.peek_seconds(config) is None
                    ]
                job.result = await self._serve_fastlane(
                    job, sweep, runtime, entries, selected, missing
                )
            else:
                # Collapse duplicate configurations before claiming: a
                # repeated config must dedupe against *other* sweeps,
                # never against this job's own claim (which would
                # deadlock it in QUEUED forever).
                keys = list(dict.fromkeys(
                    (sweep.runtime_key, config_key(config))
                    for config in sweep.configs
                ))
                owned, waiting = self.inflight.claim(keys)
                if waiting:
                    # Another sweep is computing these configurations
                    # right now; await its completion instead of
                    # re-simulating.
                    job.dedupe_hits = len(waiting)
                    self.counters.incr("dedupe_hits", len(waiting))
                    await self._await_inflight(job, waiting)
                if job.cancel_event.is_set():
                    raise SweepCancelled(job.id)
                job.state = RUNNING
                job.started = time.time()
                job.lane = "engine"

                def progress(done: int, total: int) -> None:
                    job.timed_done = done
                    job.timed_total = total

                self.counters.incr("executor_dispatches")
                job.result = await loop.run_in_executor(
                    runtime.executor,
                    self._execute_on_engine,
                    runtime.engine, sweep, job, progress,
                )
            job.state = DONE
            self.counters.incr("sweeps_completed")
        except SweepCancelled:
            job.state = CANCELLED
            self.counters.incr("sweeps_cancelled")
        except Exception as error:
            logger.exception("sweep %s failed", job.id)
            job.state = FAILED
            job.error = f"{type(error).__name__}: {error}"
            self.counters.incr("sweeps_failed")
        finally:
            job.finished = time.time()
            self.inflight.release(owned)

    @staticmethod
    async def _await_inflight(
        job: SweepJob, waiting: Sequence["asyncio.Future[None]"]
    ) -> None:
        """Await another sweep's futures, racing the job's cancel edge.

        The in-flight futures are shared with their owner and any other
        waiters, so cancellation must never propagate into them — each
        is shielded, and on cancel only the local gather is torn down
        before :class:`SweepCancelled` surfaces immediately (not after
        the owning sweep finishes).
        """
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[None]" = loop.create_future()
        job.cancel_waiter = waiter
        gather = asyncio.gather(*(asyncio.shield(f) for f in waiting))
        try:
            if job.cancel_event.is_set():
                raise SweepCancelled(job.id)
            await asyncio.wait(
                {gather, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
            if not gather.done():
                raise SweepCancelled(job.id)
            await gather  # surface an owner-side exception, if any
        finally:
            job.cancel_waiter = None
            if not waiter.done():
                waiter.cancel()
            if not gather.done():
                gather.cancel()
                try:
                    await gather
                except asyncio.CancelledError:
                    pass

    # ------------------------------------------------------------------
    # The warm-path fast lane.

    @staticmethod
    def _probe_memo(
        engine: ExecutionEngine, sweep: SweepRequest
    ) -> Optional[Tuple[List[EvaluatedConfig], List[EvaluatedConfig],
                        List[Configuration]]]:
        """Rebuild the sweep's evaluation and selection from the memo.

        Pure reads — no evaluation, no counters.  Returns ``(entries,
        selected, missing)`` where ``missing`` lists selected configs
        without a memoized measurement, or ``None`` when any static
        entry is absent (the classic engine path must run).
        """
        entries: List[EvaluatedConfig] = []
        for config in sweep.configs:
            cached = engine.peek_static(config)
            if cached is None:
                return None
            metrics, reason = cached
            entries.append(EvaluatedConfig(
                config=config, metrics=metrics, invalid_reason=reason,
            ))
        selected = select_timed(
            sweep.strategy, entries, **sweep.select_kwargs
        )
        missing = [
            entry.config for entry in selected
            if engine.peek_seconds(entry.config) is None
        ]
        return entries, selected, missing

    async def _serve_fastlane(
        self,
        job: SweepJob,
        sweep: SweepRequest,
        runtime: AppRuntime,
        entries: List[EvaluatedConfig],
        selected: List[EvaluatedConfig],
        missing: List[Configuration],
    ) -> Dict[str, Any]:
        """Answer a (partially) warm sweep on the event loop.

        Misses — if any — go to the runtime executor first (miss-only,
        chunked, cancellable); the warm portion is then served right
        here in cancellable chunks with an ``await`` per chunk, so
        concurrent warm sweeps interleave even on one runtime.  The
        payload is bit-identical to :func:`run_sweep`: same
        ``select_timed`` selection, same sequential seconds sum.
        """
        engine = runtime.engine
        job.state = RUNNING
        job.started = time.time()
        job.lane = "fastlane-partial" if missing else "fastlane"
        job.timed_total = len(selected)
        engine_delta: Optional[Dict[str, Any]] = None
        if missing:
            self.counters.incr("executor_dispatches")
            engine_delta = await asyncio.get_running_loop().run_in_executor(
                runtime.executor,
                self._measure_missing,
                engine, sweep, job, missing,
            )
        for start in range(0, len(selected), sweep.chunk_size):
            if job.cancel_event.is_set():
                raise SweepCancelled(job.id)
            chunk = selected[start:start + sweep.chunk_size]
            for entry in chunk:
                entry.seconds = engine.peek_seconds(entry.config)
            job.timed_done = max(
                job.timed_done, min(start + len(chunk), len(selected))
            )
            # The chunk boundary: lets other tasks (including a cancel
            # request) run between chunks of a large warm sweep.
            await asyncio.sleep(0)
        total = 0.0
        for entry in selected:
            total += entry.seconds
        result = SearchResult(
            strategy=sweep.strategy,
            evaluated=entries,
            timed=selected,
            best=best_entry(selected, sweep.strategy),
            measured_seconds=total,
            requested_sample_size=sweep.requested_sample_size,
        )
        # Never the live stats, which another sweep's executor thread
        # may be counting: the miss portion's own delta, or zeros.
        if engine_delta is None:
            engine_delta = EngineStats.zeros(engine.workers).as_dict()
        job.stats_delta = add_memo_hits(
            engine_delta,
            static=len(entries),
            simulations=len(selected) - len(missing),
        )
        self.counters.incr("fastlane_configs",
                           len(selected) - len(missing))
        self.counters.incr(
            "fastlane_partial" if missing else "fastlane_sweeps"
        )
        return search_result_payload(result)

    @staticmethod
    def _measure_missing(
        engine: ExecutionEngine,
        sweep: SweepRequest,
        job: SweepJob,
        missing: List[Configuration],
    ) -> Dict[str, Any]:
        """Runs on the runtime's worker thread: measure only the
        misses of a partially-warm sweep, chunked and cancellable."""
        before = engine.begin_request()
        done = 0
        for start in range(0, len(missing), sweep.chunk_size):
            if job.cancel_event.is_set():
                raise SweepCancelled(job.id)
            chunk = missing[start:start + sweep.chunk_size]
            engine.seconds_for(chunk)
            done += len(chunk)
            job.timed_done = done
        return engine.stats.delta_since(before)

    def _execute_on_engine(
        self,
        engine: ExecutionEngine,
        sweep: SweepRequest,
        job: SweepJob,
        progress: Callable[[int, int], None],
    ) -> Dict[str, Any]:
        """Runs on the runtime's worker thread (one sweep at a time)."""
        before = engine.begin_request()
        payload = run_sweep(
            engine, sweep,
            cancel_check=job.cancel_event.is_set,
            progress=progress,
        )
        job.stats_delta = engine.stats.delta_since(before)
        return payload
