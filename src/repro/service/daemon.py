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
request.  Every lane selects through
:func:`repro.tuning.search.select_timed` and builds its result with
:func:`repro.tuning.search.assemble_result`, so chunked timing with
cancellation checks cannot drift from the strategy functions.

Concurrency model: the asyncio event loop owns all bookkeeping (job
table, in-flight registry); each runtime executes sweeps on its own
single-thread executor, so one engine is never entered concurrently
while distinct runtimes proceed in parallel.  Overlapping sweeps
dedupe through :class:`~repro.service.registry.InflightRegistry`: the
second requester awaits the first's future, then reads warm caches.

One probe-then-dispatch path: before anything reaches the executor,
``_run_job`` probes the resident engine's memo (read-only
``peek_static`` / ``peek_seconds`` — plain dict reads, safe against
the executor thread).  The probe decides what the executor must still
do.  A *fully-warm* sweep — every static entry and every selected
measurement memoized — needs nothing: it is answered on the event
loop in cancellable chunks (lane ``fastlane``).  A *partially-warm*
sweep (statics memoized, some measurements missing) claims and
dispatches only its misses, then reads the rest from the memo on the
loop (``fastlane-partial``).  Anything else — a static miss, an
adaptive zoo sweep, or a daemon built with ``fastlane=False`` — claims
its configurations and dispatches the whole :func:`run_sweep`
(``engine``).  Because fully-warm sweeps never enter the executor,
warm sweeps for the *same* runtime overlap freely — the
single-thread-per-engine constraint only ever applied to sweeps that
compute.  A daemon-wide :class:`~repro.store.DecodedCache` sits
between every runtime's ``SimulationCache`` and the store, so
repeated store reads never re-hash or re-unpickle a payload.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    assemble_result,
    requested_sample_size,
    run_selection,
    select_timed,
)
from repro.tuning.space import Configuration
from repro.tuning.strategies import (
    StrategyError,
    build_strategy,
    get_spec,
    is_integer,
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
        return requested_sample_size(self.strategy, self.select_kwargs)


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
    if not is_integer(chunk_size) or chunk_size < 1:
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
    if limit is not None and (not is_integer(limit) or limit < 1):
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

    Identical to the one-shot strategy functions by construction: a
    selection sweep is one :func:`~repro.tuning.search.run_selection`
    call, measured by :func:`measure_in_chunks` instead of one batch,
    and :func:`~repro.tuning.search.assemble_result` sums the seconds
    in selection order either way, so the payload is bit-identical
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
        else:
            result = run_selection(
                request.strategy, request.configs, engine,
                measure=lambda timed: measure_in_chunks(
                    engine, timed, request, cancelled, progress
                ),
                **request.select_kwargs,
            )
    return search_result_payload(result)


def measure_in_chunks(
    engine: ExecutionEngine,
    entries: List[EvaluatedConfig],
    request: SweepRequest,
    cancelled: Callable[[], bool],
    progress: Optional[Callable[[int, int], None]] = None,
) -> None:
    """Time ``entries`` ``request.chunk_size`` at a time, checking
    ``cancelled`` before every chunk — the one measure loop behind
    :func:`run_sweep` and the daemon's partially-warm lane."""
    if progress is not None:
        progress(0, len(entries))
    for start in range(0, len(entries), request.chunk_size):
        if cancelled():
            raise SweepCancelled(request.app_name)
        chunk = entries[start:start + request.chunk_size]
        engine.time_entries(chunk)
        if progress is not None:
            progress(start + len(chunk), len(entries))


class MemoProbe(NamedTuple):
    """A selection sweep rebuilt from a runtime's memo."""

    entries: List[EvaluatedConfig]      # every configuration, evaluated
    selected: List[EvaluatedConfig]     # what select_timed would time
    missing: List[EvaluatedConfig]      # selected, not yet measured


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
        #: ``False`` skips the probe, so every sweep dispatches the
        #: whole ``run_sweep`` (the reference arm in tests and
        #: benchmarks)
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
        """Probe, claim, dispatch: the one path every sweep takes (the
        module docstring lists what each probe outcome runs)."""
        runtime = self._runtime_for(sweep)
        engine = runtime.engine
        # Read-only peeks: a racing executor thread can only turn a
        # miss into a hit.  Adaptive (zoo) sweeps never probe: their
        # timed subset depends on measured times, not just the static
        # memo, so only run_sweep can reproduce it.
        probe = (
            self._probe_memo(engine, sweep)
            if self.fastlane and sweep.kind == "selection" else None
        )
        owned: List[Tuple[str, str]] = []
        try:
            # Claim what the executor will compute: every configuration
            # for run_sweep, only the misses after a probe (the warm
            # portion is final memo state, invisible to other claims).
            # The registry collapses duplicate keys, so a repeated
            # configuration dedupes against *other* sweeps, never
            # against this job's own claim.
            computed = sweep.configs if probe is None else [
                entry.config for entry in probe.missing
            ]
            if computed:
                owned, waiting = self.inflight.claim([
                    (sweep.runtime_key, config_key(config))
                    for config in computed
                ])
                if waiting:
                    # Another sweep is computing these configurations
                    # right now; await it instead of re-simulating.
                    job.dedupe_hits = len(waiting)
                    self.counters.incr("dedupe_hits", len(waiting))
                    await self._await_inflight(job, waiting)
                if job.cancel_event.is_set():
                    raise SweepCancelled(job.id)
            job.state = RUNNING
            job.started = time.time()

            def progress(done: int, total: int) -> None:
                job.timed_done = done
                job.timed_total = total

            if probe is None:
                job.lane = "engine"
                job.result, job.stats_delta = await self._dispatch(
                    runtime, run_sweep, engine, sweep,
                    cancel_check=job.cancel_event.is_set,
                    progress=progress,
                )
            else:
                await self._serve_from_memo(job, sweep, runtime, *probe,
                                            progress=progress)
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

    async def _dispatch(
        self, runtime: AppRuntime, work: Callable[..., Any], *args, **kwargs
    ) -> Tuple[Any, Dict[str, Any]]:
        """Run ``work(*args, **kwargs)`` on the runtime's executor
        thread, bracketed by the engine's request boundary; returns its
        value and this request's stats delta."""
        self.counters.incr("executor_dispatches")

        def bracketed() -> Tuple[Any, Dict[str, Any]]:
            before = runtime.engine.begin_request()
            value = work(*args, **kwargs)
            return value, runtime.engine.stats.delta_since(before)

        return await asyncio.get_running_loop().run_in_executor(
            runtime.executor, bracketed
        )

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
    ) -> Optional[MemoProbe]:
        """Rebuild the sweep's evaluation and selection from the memo.

        Pure reads — no evaluation, no counters.  ``None`` when any
        static entry is absent (``run_sweep`` must run).
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
            entry for entry in selected
            if engine.peek_seconds(entry.config) is None
        ]
        return MemoProbe(entries, selected, missing)

    async def _serve_from_memo(
        self,
        job: SweepJob,
        sweep: SweepRequest,
        runtime: AppRuntime,
        entries: List[EvaluatedConfig],
        selected: List[EvaluatedConfig],
        missing: List[EvaluatedConfig],
        *,
        progress: Callable[[int, int], None],
    ) -> None:
        """Answer a probed sweep: dispatch its remaining misses, then
        read the selection from the memo in chunks with an ``await``
        per chunk, so concurrent warm sweeps interleave even on one
        runtime."""
        engine = runtime.engine
        # The owning sweep may have measured some misses while we
        # waited on its claim.
        missing = [
            entry for entry in missing
            if engine.peek_seconds(entry.config) is None
        ]
        job.lane = "fastlane-partial" if missing else "fastlane"
        if missing:
            _, engine_delta = await self._dispatch(
                runtime, measure_in_chunks, engine, missing, sweep,
                job.cancel_event.is_set, progress,
            )
        else:
            # Never the live stats, which another sweep's executor
            # thread may be counting.
            engine_delta = EngineStats.zeros(engine.workers).as_dict()
        job.timed_total = len(selected)
        for start in range(0, len(selected), sweep.chunk_size):
            if job.cancel_event.is_set():
                raise SweepCancelled(job.id)
            chunk = selected[start:start + sweep.chunk_size]
            for entry in chunk:
                entry.seconds = engine.peek_seconds(entry.config)
            job.timed_done = max(job.timed_done, start + len(chunk))
            # The chunk boundary: lets other tasks (including a cancel
            # request) run between chunks of a large warm sweep.
            await asyncio.sleep(0)
        job.result = search_result_payload(assemble_result(
            sweep.strategy, entries, selected, sweep.select_kwargs
        ))
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
