"""Observability: mergeable counters and lightweight tracing spans.

The subsystem exists to make the harness's self-reported numbers
*true* rather than approximately true:

* :mod:`repro.obs.metrics` — a picklable, mergeable counter registry.
  Process-pool workers measure their own work as counter *deltas* and
  ship them back with each result, so the parent can aggregate exact
  totals instead of losing everything that happened in a forked
  process (see :mod:`repro.tuning.engine`).
* :mod:`repro.obs.trace` — spans (engine batches, simulator stages,
  SM replays) recorded against a global tracer and exported as a
  Chrome-trace JSON (``chrome://tracing`` / Perfetto).  Disabled by
  default with near-zero overhead: the hot paths pay one flag check.
* :mod:`repro.obs.faults` — deterministic fault injection for the
  sweep scheduler: a seeded :class:`FaultPlan` makes chosen task
  indices raise, hang, or kill their worker, so every recovery path
  is exercised by the chaos suite instead of trusted.
"""

from repro.obs.faults import (
    FAULTS_ENV,
    Fault,
    FaultInjected,
    FaultPlan,
    FaultSpecError,
)
from repro.obs.metrics import Counters, counter_delta
from repro.obs.trace import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Counters",
    "FAULTS_ENV",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultSpecError",
    "Tracer",
    "counter_delta",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "span",
    "tracing_enabled",
]
