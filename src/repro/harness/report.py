"""EXPERIMENTS.md writer: paper-versus-measured for every experiment."""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence

from repro.harness.experiment import AppExperiment, format_percent
from repro.harness.figures import (
    ascii_scatter,
    figure3_series,
    figure4_series,
    figure5_series,
    figure6_data,
)
from repro.harness.tables import (
    engine_rows,
    format_table,
    scheduler_rows,
    simulator_rows,
    span_rows,
    store_rows,
    table3_rows,
    table4_rows,
    zoo_curve_rows,
    zoo_restriction_rows,
    zoo_rows,
)


def _fmt_ms(value: Optional[float]) -> str:
    return "invalid" if value is None else f"{value:8.3f}"


def render_report(
    experiments: Sequence[AppExperiment],
    preamble: str = "",
    spans: Optional[Sequence[Dict]] = None,
) -> str:
    """Render the full paper-vs-measured report as markdown.

    ``spans`` — Chrome-trace events recorded during the run (see
    ``repro.obs.trace``); when provided, a per-stage wall-time
    breakdown table is appended.
    """
    by_name: Dict[str, AppExperiment] = {e.name: e for e in experiments}
    out = io.StringIO()
    write = out.write

    write("# EXPERIMENTS — paper versus measured\n\n")
    if preamble:
        write(preamble.rstrip() + "\n\n")

    # ------------------------------------------------------------ Table 3
    write("## Table 3 — speedup over single-thread CPU\n\n")
    write("CPU times are modeled (see DESIGN.md, Substitutions); the\n")
    write("comparison is about ordering and magnitude, not absolutes.\n\n")
    write("```\n")
    write(format_table(
        table3_rows(experiments),
        ["application", "speedup", "paper_speedup", "gpu_best_ms", "cpu_model_ms"],
    ))
    write("\n```\n\n")

    # ------------------------------------------------------------ Table 4
    write("## Table 4 — parameter search properties\n\n")
    write("```\n")
    write(format_table(
        table4_rows(experiments),
        ["kernel", "configurations", "paper_configurations",
         "evaluation_time_s", "selected", "paper_selected",
         "space_reduction_percent", "paper_reduction_percent",
         "selected_evaluation_time_s", "optimum_on_curve"],
    ))
    write("\n```\n\n")
    write("Evaluation times are the summed *simulated kernel* times, the\n")
    write("cost an exhaustive search pays on the device.\n\n")

    # ------------------------------------------------ Section 1 numbers
    write("## Section 1 — motivation numbers\n\n")
    write("The paper motivates the search with the MRI space: 17% between\n")
    write("a hand-optimized implementation and the optimum, 235% between\n")
    write("worst and optimum.  Per application here:\n\n")
    write("```\n")
    write("application | hand_vs_optimal | worst_vs_optimal\n")
    write("------------+-----------------+-----------------\n")
    for experiment in experiments:
        write(
            f"{experiment.name:<11} | "
            f"{format_percent((experiment.hand_optimized_over_best - 1) * 100, 14)} | "
            f"{format_percent((experiment.worst_over_best - 1) * 100, 15)}\n"
        )
    write("```\n\n")
    write("Our simulated MRI spread is narrower than the paper's — the\n")
    write("modeled penalties (launch overhead, occupancy) are milder than\n")
    write("real cache-conflict effects; see the layout-ablation bench for\n")
    write("the cache-conflict mechanism.\n\n")

    # ------------------------------------------------------------ Figure 3
    if "matmul" in by_name:
        write("## Figure 3 — matrix multiplication optimization space\n\n")
        write("```\n")
        write("tile  rect  unroll    normal(ms)  prefetch(ms)\n")
        series = figure3_series(by_name["matmul"])
        paired: Dict[tuple, Dict[bool, Optional[float]]] = {}
        for row in series:
            key = (row["tile"], row["rect"], row["unroll"])
            paired.setdefault(key, {})[row["prefetch"]] = row["time_ms"]
        for (tile, rect, unroll), times in paired.items():
            write(
                f"{tile:>2}x{tile:<2} 1x{rect}  {unroll:<9}"
                f" {_fmt_ms(times.get(False))}    {_fmt_ms(times.get(True))}\n"
            )
        write("```\n\n")

    # ------------------------------------------------------------ Figure 4
    if "sad" in by_name:
        write("## Figure 4 — SAD optimization space\n\n")
        rows = figure4_series(by_name["sad"])
        by_threads: Dict[int, list] = {}
        for row in rows:
            by_threads.setdefault(row["threads_per_block"], []).append(row["time_ms"])
        write("```\n")
        write("threads/block  configs  min(ms)   median(ms)  max(ms)\n")
        for threads in sorted(by_threads):
            times = sorted(by_threads[threads])
            median = times[len(times) // 2]
            write(
                f"{threads:>13}  {len(times):>7}  {times[0]:8.3f}  "
                f"{median:9.3f}  {times[-1]:8.3f}\n"
            )
        write("```\n\n")

    # ------------------------------------------------------------ Figure 5
    if "cp" in by_name:
        write("## Figure 5 — CP metrics versus performance\n\n")
        write("```\n")
        write("tiling  time(ms)  1/eff(norm)  1/util(norm)\n")
        for row in figure5_series(by_name["cp"]):
            write(
                f"{row['tiling']:>6}  {row['time_s'] * 1e3:8.3f}  "
                f"{row['inv_efficiency_norm']:11.3f}  "
                f"{row['inv_utilization_norm']:12.3f}\n"
            )
        write("```\n\n")

    # ------------------------------------------------------------ Figure 6
    write("## Figure 6 — searching by Pareto-optimal performance metrics\n\n")
    for experiment in experiments:
        data = figure6_data(experiment)
        write(f"### Figure 6 — {experiment.name}\n\n")
        write("```\n")
        write(ascii_scatter(data.points, data.pareto, data.optimal))
        write("\n```\n\n")
        write(
            f"Pareto subset: {len(data.pareto)} of {len(data.points)} valid "
            f"configurations; optimum on curve: "
            f"**{data.optimum_on_curve}**.\n\n"
        )

    # ------------------------------------------------- Strategy zoo
    zoo_telemetry = zoo_rows(experiments)
    if zoo_telemetry:
        write("## Search-strategy zoo — budget versus quality\n\n")
        write("Budgeted search algorithms (see docs/search_strategies.md)\n")
        write("run over the same spaces with a 25%-of-valid-space\n")
        write("evaluation budget, each in two compositions: the full valid\n")
        write("space and the Pareto-pruned subset (the paper's pruning as a\n")
        write("pre-filter).  `gap_vs_opt` compares the strategy's pick to\n")
        write("the exhaustive optimum; `evals_to_5pct` is how many\n")
        write("evaluations it took to get within 5% of it.\n\n")
        write("```\n")
        write(format_table(
            zoo_telemetry,
            ["application", "strategy", "restrict", "pool", "budget",
             "timed", "best_ms", "gap_vs_opt_percent", "evals_to_5pct"],
        ))
        write("\n```\n\n")

        write("### Budget versus best configuration\n\n")
        write("Best-so-far (ms) after N evaluations, full-space runs:\n\n")
        for experiment in experiments:
            curve = zoo_curve_rows(experiment)
            if not curve:
                continue
            strategies = [c for c in curve[0] if c != "evaluations"]
            write(f"#### {experiment.name} "
                  f"(optimum {experiment.exhaustive.best.seconds * 1e3:.3f} ms)\n\n")
            write("```\n")
            write(format_table(curve, ["evaluations"] + strategies))
            write("\n```\n\n")

        restriction = zoo_restriction_rows(experiments)
        if restriction:
            write("### Does Pareto restriction help?\n\n")
            write("Counts over the studied apps: runs within 5% of the\n")
            write("optimum under each composition, and apps where the\n")
            write("Pareto-restricted run matched or beat the full-space\n")
            write("run's best.  Small Pareto pools cap the budget (the\n")
            write("pool may be smaller than the budget), so equal-or-\n")
            write("better at lower cost reads as \"pruning helps\".\n\n")
            write("```\n")
            write(format_table(
                restriction,
                ["strategy", "apps", "full_within_5pct",
                 "pareto_within_5pct", "pareto_at_least_as_good"],
            ))
            write("\n```\n\n")

    # ------------------------------------------------- Engine telemetry
    telemetry = engine_rows(experiments)
    if telemetry:
        write("## Search engine telemetry\n\n")
        write("One static-metric pass and at most one simulation per\n")
        write("configuration, shared by every strategy (see\n")
        write("docs/search_engine.md); cache hits are requests the shared\n")
        write("evaluation cache absorbed.\n\n")
        write("```\n")
        write(format_table(
            telemetry,
            ["application", "workers", "static_evals", "simulations",
             "cache_hits", "evaluate_wall_s", "simulate_wall_s",
             "pool_fallbacks"],
        ))
        write("\n```\n\n")
        if any(row["pool_fallbacks"] for row in telemetry):
            write("**Warning:** at least one run degraded from the worker\n")
            write("pool to in-process simulation (see the harness log for\n")
            write("the reason); wall times above are not pooled times.\n\n")

    # ----------------------------------------- Fault-tolerance telemetry
    fault_telemetry = scheduler_rows(experiments)
    if fault_telemetry:
        write("## Fault-tolerance telemetry\n\n")
        write("The sweep scheduler absorbed failures during this run (see\n")
        write("docs/fault_tolerance.md): retries are re-queued task\n")
        write("attempts, timeouts are deadline kills of hung workers,\n")
        write("crashes are worker processes that died mid-task, and\n")
        write("serial_tasks exhausted the pool's retry budget and ran\n")
        write("in-process.  Counts are exact under any worker count, and\n")
        write("results remain bit-identical to a serial run.\n\n")
        write("```\n")
        write(format_table(
            fault_telemetry,
            ["application", "retries", "timeouts", "errors", "crashes",
             "quarantined", "serial_tasks", "backoff_s", "pool_fallbacks"],
        ))
        write("\n```\n\n")

    # ---------------------------------------------- Simulator telemetry
    sim_telemetry = simulator_rows(experiments)
    if sim_telemetry:
        write("## Simulator cache telemetry\n\n")
        write("Content-addressed sharing inside the simulator (see\n")
        write("docs/simulator.md): hits are compile passes, warp traces and\n")
        write("SM replays reused across configurations whose post-transform\n")
        write("kernels are identical; compile hits/evals are whole static\n")
        write("reports shared through the compile tier (see\n")
        write("docs/compile_pipeline.md); wave/event counts are the replay\n")
        write("work actually performed.  Pool workers report per-task\n")
        write("counter deltas, so these totals are exact for any worker\n")
        write("count (see docs/observability.md).\n\n")
        write("```\n")
        write(format_table(
            sim_telemetry,
            ["application", "resource_hits", "trace_hits", "sm_hits",
             "compile_hits", "compile_evals",
             "waves_simulated", "blocks_replayed", "events_replayed"],
        ))
        write("\n```\n\n")

    # ------------------------------------------- Persistent store telemetry
    store_telemetry = store_rows(experiments)
    if store_telemetry:
        write("## Persistent store telemetry\n\n")
        write("Disk traffic of the durable result store layered under the\n")
        write("simulator cache (see docs/persistent_store.md): hits are\n")
        write("artifacts read back instead of recomputed, misses fell\n")
        write("through to computation (and were written back), evictions\n")
        write("enforce the size bound, and corrupt entries were dropped\n")
        write("and recomputed.  The store only changes how fast results\n")
        write("arrive — never their values.\n\n")
        write("```\n")
        write(format_table(
            store_telemetry,
            ["application", "store_hits", "store_misses",
             "store_evictions", "store_corrupt"],
        ))
        write("\n```\n\n")

    # ------------------------------------------------ Per-stage timing
    if spans:
        stage_rows = span_rows(spans)
        if stage_rows:
            write("## Per-stage timing (trace spans)\n\n")
            write("Wall time by span name, aggregated from the Chrome trace\n")
            write("recorded with `--trace` (nested spans overlap — outer\n")
            write("totals include the stages underneath them).\n\n")
            write("```\n")
            write(format_table(
                stage_rows, ["span", "count", "total_ms", "mean_us"],
            ))
            write("\n```\n\n")

    # ------------------------------------------------------------ Summary
    write("## Headline claim\n\n")
    all_on = all(e.optimum_on_curve for e in experiments)
    write(
        "For every studied application the Pareto-optimal subset of the\n"
        "(efficiency, utilization) plot contains the configuration with\n"
        f"the best simulated performance: **{all_on}**.\n"
    )
    return out.getvalue()


def write_report(
    path: str,
    experiments: Sequence[AppExperiment],
    preamble: str = "",
    spans: Optional[Sequence[Dict]] = None,
) -> None:
    with open(path, "w") as handle:
        handle.write(render_report(experiments, preamble, spans=spans))
