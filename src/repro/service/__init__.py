"""Autotuning-as-a-service: a long-lived daemon over the result store.

``python -m repro.service serve`` starts an asyncio HTTP/JSON daemon
whose resident engines keep every cache tier warm across requests;
``python -m repro.service sweep`` is the blocking client;
``python -m repro.service run-local`` executes the same request
through the one-shot CLI path and emits the identical payload — the
equivalence oracle CI pins.  See docs/service.md.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    RequestError,
    SweepRequest,
    TuningService,
    parse_sweep_request,
    run_sweep,
)
from repro.service.http import HTTPError, Request, Response, Router
from repro.service.registry import (
    JobTable,
    SweepCancelled,
    SweepJob,
)

__all__ = [
    "HTTPError",
    "JobTable",
    "Request",
    "RequestError",
    "Response",
    "Router",
    "ServiceClient",
    "ServiceError",
    "SweepCancelled",
    "SweepJob",
    "SweepRequest",
    "TuningService",
    "parse_sweep_request",
    "run_sweep",
]
