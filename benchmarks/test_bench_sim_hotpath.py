"""Simulator hot-path benchmark: optimized pipeline versus reference.

Times the full matmul configuration space through two pipelines:

* **reference** — the straightforward path: per-configuration kernel
  build, compile pass, flat O(dynamic-instructions) trace build, and
  the simple heap-driven replay of :mod:`tests.sim.oracles` (the
  shape of the original implementation);
* **optimized** — ``Application.simulate``: loop-compressed segment
  walking, the compiled flat-trace replay engine, and the
  content-addressed compile/trace/SM cache.

Two speedups are measured, both gated against
``baselines/sim_hotpath.json``:

* **exact** — both pipelines sample ``simulated_waves`` waves and must
  produce bit-identical per-configuration seconds (the replays are
  differentially tested; this re-checks end to end), so the comparison
  is pure wall clock;
* **deep** (the headline ``speedup_vs_reference``) — both pipelines
  sample ``DEEP_WAVES`` waves (the optimized one through
  ``sim_overrides``) and must again agree bit for bit.  Deeper samples
  give the recurrence skip more whole periods to jump over, so this
  is where the optimized replay's advantage is largest.

Because both pipelines run in the same process on the same machine,
the ratios are largely machine-independent, making them meaningful CI
regression gates where absolute seconds are not.  A run whose speedup
falls below ``allowed_fraction`` of the committed baseline fails.

After the timed sweeps, a separately-timed *static pass* runs the
compile stage over the space, so the compile-tier counters in the
report reflect real traffic (they used to read 0 — the sweep phases
only ever called ``app.simulate``, which never touches the compile
tier; pinned by tests/tuning/test_compile_telemetry.py).  It runs
after the gated cold sweeps on purpose: evaluating first would seed
the resource tier and quietly flatter the gated ratios.

A *warm* phase re-runs the space on a fresh application that shares
the first sweep's populated ``SimulationCache``: every configuration
resolves through the fingerprint tiers without building a single
trace, measuring pure cache-hit throughput.

Finally a *cross-process warm-start* phase fills a persistent
:class:`~repro.store.ResultStore` with an untimed, store-backed engine
sweep of the space (``ExecutionEngine.for_app(MatMul(), store=...)``,
the path the harness and the daemon take) and re-runs the sweep in a
**fresh Python process** that has only that store to go on.  The
child sweeps ``WARM_SWEEPS`` times, each with a fresh application and
engine running ``evaluate_all`` then ``seconds_for``; every
configuration's results come from the store's ``config`` tier.  The
child itself asserts what the store is for: no sweep builds a kernel
(``app._kernel_cache`` stays empty), evaluates or simulates a
configuration (``static_evaluations == simulations == 0``), compiles
or replays anything (``compile_evaluations == events_replayed == 0``),
and every sweep gives the same times.  Those times must be
bit-identical to this process's (compared through JSON, which
round-trips doubles exactly), and the child's median sweep must beat
this process's cold sweep by the gated
``warm_process_speedup_vs_cold`` ratio.  A sweep takes 5-10 ms on a
2-core VM, so the median of several keeps a scheduler blip from moving
the ratio by half.

Results are also written to ``BENCH_sim_hotpath.json`` at the repo
root for inspection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.apps import MatMul
from repro.arch.occupancy import LaunchError
from repro.cubin.resources import cubin_info
from tests.sim.oracles import build_trace_reference, simulate_sm_reference
from repro.store import ResultStore
from repro.tuning.engine import ExecutionEngine, config_key

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baselines", "sim_hotpath.json")
RESULT_PATH = os.path.join(HERE, os.pardir, "BENCH_sim_hotpath.json")

#: waves both pipelines sample in the headline deep phase
DEEP_WAVES = 8

#: store-warm sweeps of fresh apps in the child; the gate reads the median
WARM_SWEEPS = 5

#: Run in a fresh interpreter against a populated store: sweep the full
#: matmul space WARM_SWEEPS times, each with a fresh app and engine,
#: asserting that no sweep builds, evaluates, simulates, compiles or
#: replays anything; report the last sweep's per-config times and
#: engine stats and every sweep's wall time.
WARM_PROCESS_SCRIPT = """\
import json, statistics, sys, time
from repro.apps import MatMul
from repro.tuning.engine import ExecutionEngine, config_key

store_dir, out_path, sweeps = sys.argv[1], sys.argv[2], int(sys.argv[3])
runs = []
first_times = None
for _ in range(sweeps):
    app = MatMul()
    with ExecutionEngine.for_app(app, store=store_dir) as engine:
        started = time.perf_counter()
        entries = engine.evaluate_all(list(app.space()))
        valid = [entry.config for entry in entries if entry.is_valid]
        measured = dict(zip(valid, engine.seconds_for(valid)))
        runs.append(time.perf_counter() - started)
    stats = engine.stats
    assert not app._kernel_cache, "a store-warm sweep built a kernel"
    assert stats.static_evaluations == stats.simulations == 0
    assert stats.compile_evaluations == stats.events_replayed == 0
    times = {config_key(entry.config): measured.get(entry.config)
             for entry in entries}
    first_times = first_times or times
    assert times == first_times
with open(out_path, "w") as handle:
    json.dump({"times": times, "sweep_seconds": statistics.median(runs),
               "sweeps": runs, "stats": stats.as_dict()}, handle)
"""


def _reference_sweep(app, waves=None):
    """The pre-optimization pipeline, one configuration at a time.

    ``waves`` overrides ``simulated_waves`` (the deep phase samples
    ``DEEP_WAVES`` waves).
    """
    times = {}
    for config in app.space():
        try:
            kernel = app.build_kernel(config)
            resources = cubin_info(kernel)
            sim_config = app.sim_config(config)
            if waves is not None:
                sim_config = dataclasses.replace(
                    sim_config, simulated_waves=waves
                )
            occupancy = resources.occupancy(sim_config.device)
            trace = build_trace_reference(kernel, sim_config)
            blocks_per_sm_total = math.ceil(
                kernel.num_blocks / sim_config.device.num_sms
            )
            blocks_to_sample = min(
                blocks_per_sm_total,
                occupancy.blocks_per_sm * sim_config.simulated_waves,
            )
            sm = simulate_sm_reference(
                trace,
                warps_per_block=occupancy.warps_per_block,
                blocks_resident=occupancy.blocks_per_sm,
                total_blocks=blocks_to_sample,
                config=sim_config,
            )
            cycles = sm.cycles_per_block * blocks_per_sm_total
            times[config] = sim_config.device.cycles_to_seconds(cycles)
        except Exception:
            times[config] = None
    return times


def _optimized_sweep(app):
    times = {}
    for config in app.space():
        try:
            times[config] = app.simulate(config)
        except Exception:
            times[config] = None
    return times


def _static_pass(app):
    """The compile stage over the space (invalid configs recorded)."""
    evaluated = 0
    for config in app.space():
        try:
            app.evaluate(config)
            evaluated += 1
        except LaunchError:
            pass
    return evaluated


def _fill_store(store_dir):
    """One store-backed engine sweep of the space; returns its times."""
    app = MatMul()
    with ExecutionEngine.for_app(app, store=ResultStore(store_dir)) as engine:
        entries = engine.evaluate_all(list(app.space()))
        valid = [entry.config for entry in entries if entry.is_valid]
        measured = dict(zip(valid, engine.seconds_for(valid)))
    return {entry.config: measured.get(entry.config) for entry in entries}


def _run_warm_process(store_dir):
    """Sweep the space in a fresh interpreter warmed only by the store."""
    out_path = os.path.join(store_dir, "warm_process_result.json")
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    subprocess.run(
        [sys.executable, "-c", WARM_PROCESS_SCRIPT, store_dir, out_path,
         str(WARM_SWEEPS)],
        env=env, check=True, timeout=600,
    )
    with open(out_path) as handle:
        return json.load(handle)


def test_matmul_full_space_speedup_vs_baseline():
    # ------------------------------------------------------------------
    # Exact phase: both pipelines at simulated_waves, bit-identical.
    started = time.perf_counter()
    reference_app = MatMul()
    reference_times = _reference_sweep(reference_app)
    reference_seconds = time.perf_counter() - started

    started = time.perf_counter()
    optimized_app = MatMul()
    optimized_times = _optimized_sweep(optimized_app)
    optimized_seconds = time.perf_counter() - started

    # Identical semantics, end to end.
    assert optimized_times == reference_times

    # ------------------------------------------------------------------
    # Deep phase (the headline gate): both pipelines at DEEP_WAVES,
    # bit-identical per configuration.
    started = time.perf_counter()
    deep_reference_times = _reference_sweep(MatMul(), waves=DEEP_WAVES)
    deep_reference_seconds = time.perf_counter() - started

    deep_app = MatMul()
    deep_app.sim_overrides = {"simulated_waves": DEEP_WAVES}
    started = time.perf_counter()
    deep_times = _optimized_sweep(deep_app)
    deep_seconds = time.perf_counter() - started

    assert deep_times == deep_reference_times
    deep_counters = deep_app.sim_cache.counters()

    # Static pass (separately timed, after the gated sweeps): the
    # compile tier sees real traffic, so the reported counters can
    # never silently read 0 again.
    started = time.perf_counter()
    static_evaluated = _static_pass(optimized_app)
    static_seconds = time.perf_counter() - started
    cold_counters = dict(optimized_app.sim_cache.counters())
    assert static_evaluated > 0
    assert cold_counters["compile_evaluations"] > 0

    # Warm phase: a fresh app sharing the populated cache — every
    # configuration must resolve through the fingerprint tiers alone.
    warm_app = MatMul()
    warm_app.sim_cache = optimized_app.sim_cache
    started = time.perf_counter()
    warm_times = _optimized_sweep(warm_app)
    warm_static = _static_pass(warm_app)
    warm_seconds = time.perf_counter() - started
    assert warm_times == optimized_times
    assert warm_static == static_evaluated
    warm_delta = {
        name: value - cold_counters[name]
        for name, value in warm_app.sim_cache.counters().items()
    }
    # Pure reuse: hits grew, real replay/compile work did not.
    assert warm_delta["events_replayed"] == 0
    assert warm_delta["waves_simulated"] == 0
    assert warm_delta["fingerprint_sm_hits"] > 0
    assert warm_delta["compile_hits"] > 0
    assert warm_delta["compile_evaluations"] == 0

    # Cross-process warm start: fill a store with an untimed engine
    # sweep, then sweep again in a brand-new interpreter that has only
    # the store to go on.  Bit-identical results, nothing recomputed,
    # and a gated speedup over this process's cold sweep.
    store_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        assert _fill_store(store_dir) == optimized_times
        entries_stored = ResultStore(store_dir).entry_count()
        warm_process = _run_warm_process(store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    expected_times = json.loads(json.dumps({
        config_key(config): seconds
        for config, seconds in optimized_times.items()
    }))
    # JSON round-trips IEEE doubles exactly, so == is bit-equivalence.
    assert warm_process["times"] == expected_times
    warm_stats = warm_process["stats"]
    assert warm_stats["static_evaluations"] == warm_stats["simulations"] == 0
    assert warm_stats["compile_evaluations"] == 0
    assert warm_stats["events_replayed"] == warm_stats["waves_simulated"] == 0
    # One bulk config-tier read, one entry per configuration, answers
    # the whole sweep.
    assert warm_stats["store_bulk_reads"] == 1
    assert warm_stats["store_hits"] == len(optimized_times)
    assert warm_stats["store_misses"] == 0
    assert len(warm_process["sweeps"]) == WARM_SWEEPS
    warm_process_seconds = warm_process["sweep_seconds"]
    store_speedup = optimized_seconds / warm_process_seconds

    exact_speedup = reference_seconds / optimized_seconds
    speedup = deep_reference_seconds / deep_seconds
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    expected = baseline["matmul_full_space"]["speedup_vs_reference"]
    expected_exact = baseline["matmul_full_space"][
        "exact_speedup_vs_reference"
    ]
    expected_store = baseline["matmul_full_space"]["warm_process_speedup_vs_cold"]
    allowed_fraction = baseline["allowed_fraction"]

    payload = {
        "benchmark": "sim_hotpath",
        "space": "matmul full (96 configurations)",
        # Headline deep phase: both pipelines at DEEP_WAVES waves,
        # bit-identical per-configuration seconds.
        "reference_sweep_seconds": round(deep_reference_seconds, 3),
        "optimized_sweep_seconds": round(deep_seconds, 3),
        "speedup_vs_reference": round(speedup, 2),
        "baseline_speedup": expected,
        "reference_waves": DEEP_WAVES,
        "gate": f"speedup >= {allowed_fraction} * baseline",
        # Exact phase: both pipelines at simulated_waves, bit-identical
        # per-configuration seconds — pure interpreter wall clock.
        "exact": {
            "reference_sweep_seconds": round(reference_seconds, 3),
            "optimized_sweep_seconds": round(optimized_seconds, 3),
            "speedup_vs_reference": round(exact_speedup, 2),
            "baseline_speedup": expected_exact,
        },
        # Deep-phase replay work, and the share the jumps covered.
        "deep_counters": {
            name: deep_counters[name]
            for name in ("waves_simulated", "blocks_replayed",
                         "events_replayed", "events_skipped")
        },
        # Static pass over the space (run after the gated cold sweeps
        # so it cannot flatter the ratios): compile-tier traffic is real.
        "static_pass": {
            "evaluated": static_evaluated,
            "pass_seconds": round(static_seconds, 3),
        },
        # Cold phase counters: real simulation + compile work plus
        # within-sweep reuse.
        "fingerprint_cache": cold_counters,
        # Warm sweep: a second pass over the same space through the
        # shared cache — wall time and the counter delta it added
        # (hits only; zero new waves/events/compiles by construction).
        "warm_sweep": {
            "sweep_seconds": round(warm_seconds, 3),
            "speedup_vs_cold": round(optimized_seconds / warm_seconds, 2),
            "counter_delta": warm_delta,
        },
        # A fresh interpreter warmed only by the persistent store:
        # bit-identical times, no kernel built, evaluated or simulated,
        # nothing replayed; the median sweep's speedup is gated, every
        # sweep's seconds are recorded.
        "warm_process": {
            "entries_stored": entries_stored,
            "sweep_seconds": round(warm_process_seconds, 4),
            "speedup_vs_cold": round(store_speedup, 2),
            "baseline_speedup": expected_store,
            "sweeps": [round(seconds, 4) for seconds in warm_process["sweeps"]],
            "stats": warm_stats,
        },
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")

    assert speedup >= allowed_fraction * expected, (
        f"deep simulator hot path regressed: {speedup:.2f}x vs "
        f"baseline {expected}x (allowed fraction {allowed_fraction})"
    )
    assert exact_speedup >= allowed_fraction * expected_exact, (
        f"exact simulator hot path regressed: {exact_speedup:.2f}x vs "
        f"baseline {expected_exact}x (allowed fraction {allowed_fraction})"
    )
    assert store_speedup >= allowed_fraction * expected_store, (
        f"store-backed warm start regressed: {store_speedup:.2f}x vs "
        f"baseline {expected_store}x (allowed fraction {allowed_fraction})"
    )
