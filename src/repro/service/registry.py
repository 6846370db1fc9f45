"""Sweep job bookkeeping: the daemon's job table.

:class:`JobTable` holds every sweep ever submitted to this daemon,
keyed by id.  The event loop creates, cancels and finishes jobs; a
sweep's executor thread writes only its own job's progress counters
and the ``running`` stamp when it starts the sweep's work.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "DEFAULT_MAX_JOBS",
    "JobTable",
    "SweepCancelled",
    "SweepJob",
    "TERMINAL_STATES",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class SweepCancelled(Exception):
    """Raised inside a sweep worker when its job was cancelled."""


@dataclasses.dataclass
class SweepJob:
    """One submitted sweep and everything the API reports about it."""

    id: str
    runtime_key: str
    request: Dict[str, Any]          # the validated submission, echoed back
    state: str = QUEUED
    created: float = dataclasses.field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    timed_total: int = 0             # configurations the strategy selected
    timed_done: int = 0              # measured so far (streams per chunk)
    #: which path served this sweep: "engine" (executor dispatch),
    #: "fastlane" (fully warm, answered on the event loop), or
    #: "fastlane-partial" (hits on the loop, misses on the engine)
    lane: Optional[str] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    stats_delta: Optional[Dict[str, Any]] = None
    #: set from the event loop, polled by the worker thread at chunk
    #: boundaries — a threading.Event because it crosses threads
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event
    )
    #: loop-side cancellation edge: while the job awaits its executor
    #: work, resolving this future wakes it, so work that has not
    #: started is cancelled at once instead of after the queue ahead
    cancel_waiter: Optional["asyncio.Future[None]"] = None

    def start(self) -> None:
        """Stamp the job running: on the event loop for a sweep that
        dispatches nothing, else on the executor thread as the sweep's
        work begins."""
        self.state = RUNNING
        self.started = time.time()

    def request_cancel(self) -> None:
        """Signal cancellation on both sides: the worker thread's
        event and (if the job awaits its executor work) the event-loop
        waiter.  Must be called on the event loop."""
        self.cancel_event.set()
        if self.cancel_waiter is not None and not self.cancel_waiter.done():
            self.cancel_waiter.set_result(None)

    def status_payload(self) -> Dict[str, Any]:
        payload = {
            "id": self.id,
            "state": self.state,
            "runtime": self.runtime_key,
            "request": self.request,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "timed_total": self.timed_total,
            "timed_done": self.timed_done,
        }
        if self.lane is not None:
            payload["lane"] = self.lane
        if self.error is not None:
            payload["error"] = self.error
        if self.stats_delta is not None:
            payload["stats"] = self.stats_delta
        return payload


#: states a job can never leave (safe to prune)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: default JobTable retention: terminal jobs (with their full result
#: payloads) past this count are pruned oldest-first on submission, so
#: a long-lived daemon's memory stays bounded
DEFAULT_MAX_JOBS = 256


class JobTable:
    """All sweeps this daemon has seen, in submission order.

    Retention is bounded: whenever the table holds more than
    ``max_jobs`` entries, the oldest *terminal* jobs — and their
    ``result`` payloads — are dropped.  Queued/running jobs are never
    pruned, so the table can temporarily exceed the cap while that
    many sweeps are actually live.
    """

    def __init__(self, max_jobs: int = DEFAULT_MAX_JOBS) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be positive, got {max_jobs}")
        self.max_jobs = max_jobs
        self._jobs: Dict[str, SweepJob] = {}
        self._ids = itertools.count(1)

    def create(self, runtime_key: str, request: Dict[str, Any]) -> SweepJob:
        job = SweepJob(
            id=f"sweep-{next(self._ids)}",
            runtime_key=runtime_key,
            request=request,
        )
        self._jobs[job.id] = job
        self._prune()
        return job

    def _prune(self) -> None:
        """Drop oldest terminal jobs until the table fits ``max_jobs``."""
        excess = len(self._jobs) - self.max_jobs
        if excess <= 0:
            return
        for job_id in [
            job.id for job in self._jobs.values()
            if job.state in TERMINAL_STATES
        ][:excess]:
            del self._jobs[job_id]

    def get(self, job_id: str) -> Optional[SweepJob]:
        return self._jobs.get(job_id)

    def all(self) -> List[SweepJob]:
        return list(self._jobs.values())

    def count_by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
