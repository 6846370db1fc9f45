"""Regeneration of the paper's tables.

* Table 3 — application suite with speedups over single-thread CPU;
* Table 4 — parameter-search properties: space size, evaluation time,
  Pareto-selected count, space reduction, selected evaluation time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.harness.experiment import AppExperiment

PAPER_TABLE4_PARAMETERS = {
    "matmul": "tile/block size, rectangular tile dimension, unroll factor, "
              "prefetching, register spilling",
    "cp": "block size, per-thread tiling, coalescing of output",
    "sad": "per-thread tiling, unroll factor (3 loops), work per block",
    "mri-fhd": "block size, unroll factor, work per kernel invocation",
}


def table3_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Table 3: measured (modeled-CPU) speedup per application."""
    rows = []
    for experiment in experiments:
        rows.append({
            "application": experiment.name,
            "speedup": experiment.speedup_over_cpu,
            "paper_speedup": experiment.app.paper_speedup,
            "gpu_best_ms": experiment.gpu_best_seconds * 1e3,
            "cpu_model_ms": experiment.app.cpu_time_model_seconds() * 1e3,
        })
    return rows


def table4_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Table 4: search-space properties per application."""
    rows = []
    for experiment in experiments:
        rows.append({
            "kernel": experiment.name,
            "parameters": PAPER_TABLE4_PARAMETERS.get(experiment.name, ""),
            "configurations": experiment.exhaustive.space_size,
            "valid_configurations": experiment.exhaustive.valid_count,
            "paper_configurations": experiment.app.paper_space_size,
            "evaluation_time_s": experiment.exhaustive.measured_seconds,
            "selected": experiment.pareto.timed_count,
            "paper_selected": experiment.app.paper_selected,
            "space_reduction_percent": experiment.space_reduction_percent,
            "paper_reduction_percent": experiment.app.paper_reduction_percent,
            "selected_evaluation_time_s": experiment.pareto.measured_seconds,
            "optimum_on_curve": experiment.optimum_on_curve,
        })
    return rows


def engine_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Search-engine telemetry per application (cache hits, wall time)."""
    rows = []
    for experiment in experiments:
        stats = experiment.engine_stats
        if stats is None:
            continue
        rows.append({
            "application": experiment.name,
            "workers": stats.workers,
            "static_evals": stats.static_evaluations,
            "simulations": stats.simulations,
            "cache_hits": stats.cache_hits,
            "evaluate_wall_s": stats.evaluate_seconds,
            "simulate_wall_s": stats.simulate_seconds,
            "pool_fallbacks": stats.pool_fallbacks,
        })
    return rows


def scheduler_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Fault-tolerance telemetry per application.

    Counts are exact (accumulated in the parent process, see
    repro.tuning.scheduler): retries, deadline kills, worker crashes,
    quarantined worker slots, tasks that exhausted the pool's retry
    budget and ran in-process, and the total scheduled backoff delay.
    All-zero rows are skipped — the table only appears when some
    recovery machinery actually fired.
    """
    rows = []
    for experiment in experiments:
        stats = experiment.engine_stats
        if stats is None:
            continue
        if not (stats.fault_recoveries or stats.serial_fallback_tasks
                or stats.pool_fallbacks):
            continue
        rows.append({
            "application": experiment.name,
            "retries": stats.task_retries,
            "timeouts": stats.task_timeouts,
            "errors": stats.task_errors,
            "crashes": stats.worker_crashes,
            "quarantined": stats.workers_quarantined,
            "serial_tasks": stats.serial_fallback_tasks,
            "backoff_s": stats.backoff_seconds,
            "pool_fallbacks": stats.pool_fallbacks,
        })
    return rows


def simulator_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Simulator-cache telemetry per application.

    Fingerprint hits are compile passes / warp traces / SM replays
    reused across *different* configurations whose post-transform
    kernels are identical (see repro.sim.fingerprint); compile hits
    and evaluations are the static stage's content-addressed reuse of
    whole metric reports; wave and event counts measure the replay
    work actually performed.
    """
    rows = []
    for experiment in experiments:
        stats = experiment.engine_stats
        if stats is None:
            continue
        rows.append({
            "application": experiment.name,
            "resource_hits": stats.fingerprint_resource_hits,
            "trace_hits": stats.fingerprint_trace_hits,
            "sm_hits": stats.fingerprint_sm_hits,
            "compile_hits": stats.compile_hits,
            "compile_evals": stats.compile_evaluations,
            "waves_simulated": stats.waves_simulated,
            "blocks_replayed": stats.blocks_replayed,
            "events_replayed": stats.events_replayed,
        })
    return rows


def store_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Persistent result-store telemetry per application.

    Disk traffic of the durable tier under the simulator cache (see
    repro.store): artifacts read back instead of recomputed, lookups
    that fell through to computation, LRU evictions, and corrupt
    entries dropped on read.  All-zero rows are skipped — the table
    only appears when a store was attached and actually used.
    """
    rows = []
    for experiment in experiments:
        stats = experiment.engine_stats
        if stats is None:
            continue
        if not (stats.store_hits or stats.store_misses
                or stats.store_evictions or stats.store_corrupt):
            continue
        rows.append({
            "application": experiment.name,
            "store_hits": stats.store_hits,
            "store_misses": stats.store_misses,
            "store_evictions": stats.store_evictions,
            "store_corrupt": stats.store_corrupt,
        })
    return rows


def zoo_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Strategy-zoo telemetry: one row per app × strategy × restrict.

    ``gap_vs_opt_percent`` is the slowdown of the strategy's pick
    versus the full-exploration optimum; ``evals_to_5pct`` is the
    evaluation count at which the run's best-so-far first came within
    5% of that optimum ("-" when the budget never got there).
    """
    rows = []
    for experiment in experiments:
        optimum = experiment.exhaustive.best.seconds
        for result in experiment.zoo:
            within = result.evaluations_to_within(0.05, optimum)
            rows.append({
                "application": experiment.name,
                "strategy": result.strategy,
                "restrict": result.restrict,
                "pool": result.pool_size,
                "budget": result.budget,
                "timed": result.timed_count,
                "best_ms": result.best.seconds * 1e3,
                "gap_vs_opt_percent":
                    (result.best.seconds / optimum - 1.0) * 100.0,
                "evals_to_5pct": within if within is not None else "-",
            })
    return rows


def best_so_far(trajectory, count: int):
    """Best seconds after the first ``count`` evaluations, or None."""
    best = None
    for evaluations, seconds in trajectory:
        if evaluations > count:
            break
        best = seconds
    return best


def zoo_curve_rows(experiment: AppExperiment) -> List[Dict]:
    """Budget-versus-best curve for one app: rows are evaluation
    checkpoints (powers of two up to the budget), columns are the
    full-space zoo strategies' best-so-far in milliseconds."""
    results = [r for r in experiment.zoo if r.restrict == "full"]
    if not results:
        return []
    budget = max(r.timed_count for r in results)
    checkpoints = []
    point = 1
    while point < budget:
        checkpoints.append(point)
        point *= 2
    checkpoints.append(budget)
    rows = []
    for count in checkpoints:
        row: Dict = {"evaluations": count}
        for result in results:
            best = best_so_far(result.trajectory, count)
            row[result.strategy] = (
                "-" if best is None else f"{best * 1e3:.3f}"
            )
        rows.append(row)
    return rows


def zoo_restriction_rows(experiments: Sequence[AppExperiment]) -> List[Dict]:
    """Does Pareto restriction help each algorithm?

    Per strategy, across apps: how many runs landed within 5% of the
    optimum under each composition, and on how many apps the
    Pareto-restricted run found a best at least as good as the
    full-space run's.
    """
    by_strategy: Dict[str, Dict] = {}
    for experiment in experiments:
        optimum = experiment.exhaustive.best.seconds
        by_restrict: Dict[str, Dict[str, float]] = {}
        for result in experiment.zoo:
            by_restrict.setdefault(result.strategy, {})[result.restrict] = (
                result.best.seconds
            )
        for strategy, bests in by_restrict.items():
            entry = by_strategy.setdefault(strategy, {
                "strategy": strategy, "apps": 0,
                "full_within_5pct": 0, "pareto_within_5pct": 0,
                "pareto_at_least_as_good": 0,
            })
            entry["apps"] += 1
            full = bests.get("full")
            pareto = bests.get("pareto")
            if full is not None and full <= optimum * 1.05:
                entry["full_within_5pct"] += 1
            if pareto is not None and pareto <= optimum * 1.05:
                entry["pareto_within_5pct"] += 1
            if full is not None and pareto is not None and pareto <= full:
                entry["pareto_at_least_as_good"] += 1
    return [by_strategy[name] for name in sorted(by_strategy)]


def fastlane_rows(metrics: Dict) -> List[Dict]:
    """The "Service fast lane" report table from a ``/metrics`` payload.

    One ``counter``/``value`` row per warm-path signal: sweeps served
    on the event loop (fully warm and partial), configs answered from
    the memo, executor dispatches (the cold path, for contrast),
    decoded-cache traffic, bulk store reads summed across runtimes,
    and keep-alive connection reuse.
    """
    service = metrics.get("service", {})
    decoded = metrics.get("decoded_cache", {})
    runtimes = metrics.get("runtimes", {})
    bulk_reads = sum(
        stats.get("store_bulk_reads", 0) for stats in runtimes.values()
    )
    bytes_verified = sum(
        stats.get("store_bytes_verified", 0) for stats in runtimes.values()
    )
    names = (
        ("fastlane_sweeps", service.get("fastlane_sweeps", 0)),
        ("fastlane_partial", service.get("fastlane_partial", 0)),
        ("fastlane_configs", service.get("fastlane_configs", 0)),
        ("executor_dispatches", service.get("executor_dispatches", 0)),
        ("decoded_cache_hits", decoded.get("decoded_cache_hits", 0)),
        ("decoded_cache_misses", decoded.get("decoded_cache_misses", 0)),
        ("decoded_cache_evictions", decoded.get("decoded_cache_evictions", 0)),
        ("store_bulk_reads", bulk_reads),
        ("store_bytes_verified", bytes_verified),
        ("keepalive_connections", service.get("keepalive_connections", 0)),
        ("keepalive_reuses", service.get("keepalive_reuses", 0)),
    )
    return [{"counter": name, "value": value} for name, value in names]


def span_rows(events: Sequence[Dict]) -> List[Dict]:
    """Per-stage wall-time breakdown from Chrome-trace span events.

    Aggregates complete (``ph == "X"``) events by span name: how often
    each stage ran and how much wall time it took.  Nested spans are
    reported as recorded — an ``engine.simulate_batch`` total includes
    the ``sim.*`` stages underneath it, so the table reads as a
    drill-down, not a partition.
    """
    totals: Dict[str, Dict] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        entry = totals.setdefault(
            event["name"], {"count": 0, "total_us": 0.0}
        )
        entry["count"] += 1
        entry["total_us"] += event.get("dur", 0.0)
    rows = []
    for name in sorted(totals, key=lambda n: -totals[n]["total_us"]):
        entry = totals[name]
        rows.append({
            "span": name,
            "count": entry["count"],
            "total_ms": entry["total_us"] / 1e3,
            "mean_us": entry["total_us"] / entry["count"],
        })
    return rows


def format_table(rows: List[Dict], columns: Sequence[str]) -> str:
    """Plain-text table rendering for reports and bench output."""
    if not rows:
        return "(no rows)"

    def cell(row: Dict, column: str) -> str:
        value = row.get(column, "")
        if isinstance(value, float):
            if math.isnan(value):
                return "n/a"
            return f"{value:.3f}"
        return str(value)

    widths = {
        column: max(len(column), max(len(cell(row, column)) for row in rows))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    ruler = "-+-".join("-" * widths[column] for column in columns)
    lines = [header, ruler]
    for row in rows:
        lines.append(
            " | ".join(cell(row, column).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
