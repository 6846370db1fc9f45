"""Static-stage benchmark: overhauled pipeline versus reference.

Times the full static sweep (kernel generation -> cleanup pipeline ->
compile -> Section 4 metrics) over the matmul full space (96
configurations) and the Coulombic-potential full space through two
pipelines:

* **reference** — the pre-overhaul path: ``standard_cleanup`` detects
  convergence by re-emitting and string-comparing the PTX after every
  round (``tests.transforms.oracles.standard_cleanup_reference``),
  ``count_regions`` feeds the fully expanded dynamic stream through
  the region state machine one instruction at a time, and every
  configuration is evaluated from scratch with no compile cache.
  Kernels are built through ``app.kernel`` on a fresh app, exactly as
  the engine builds them, so both sweeps do the same builds: a matmul
  ``spill`` configuration reuses its unspilled twin's cleaned kernel
  in both, and neither pipeline is charged for a second cleanup;
* **optimized** — ``ExecutionEngine.evaluate_all``: change-driven
  fixpoint (no PTX emission on the convergence path), loop-compressed
  region counting, and the content-addressed compile tier sharing
  whole static reports across configurations whose post-transform
  kernels coincide.

Both pipelines must produce bit-identical metric reports, the same
invalid set, and the same Pareto-optimal subset — the comparison is
pure wall clock.  The *speedup ratio* is gated against
``baselines/static_pipeline.json`` (ratios of two in-process sweeps
are largely machine-independent, unlike absolute seconds).

A second test adds SAD (828 configurations, the paper's largest
space): a fixed subset, every ``SAD_SUBSET_STRIDE``-th configuration,
goes through both pipelines with the same bit-identity and Pareto
asserts, and the full space goes through the optimized pipeline alone.
Its seconds are recorded under ``sad``; absolute seconds are not
gated, but the ratio of the reference's seconds per configuration on
the subset to the optimized full space's seconds per configuration
(``full_space_speedup_per_configuration``) is, against the same
baseline file.

A micro-benchmark section also reports ``Configuration`` key-lookup
throughput: the O(1) cached-dict ``__getitem__`` against the linear
tuple scan it replaced (lookups dominate ``build_kernel`` argument
plumbing across a sweep).

Results are written to ``BENCH_static_pipeline.json`` at the repo root;
each test updates its own keys.
"""

from __future__ import annotations

import json
import os
import time

from repro.apps import CoulombicPotential, MatMul, SumOfAbsoluteDifferences
from repro.arch.occupancy import LaunchError
from repro.metrics.model import evaluate_kernel
from repro.ptx import analysis
from repro.tuning import pareto_indices
from repro.tuning.engine import ExecutionEngine
from tests.ptx.oracles import count_regions_reference
from tests.transforms.oracles import standard_cleanup_reference

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baselines", "static_pipeline.json")
RESULT_PATH = os.path.join(HERE, os.pardir, "BENCH_static_pipeline.json")

#: every SAD_SUBSET_STRIDE-th SAD configuration is swept by both pipelines
SAD_SUBSET_STRIDE = 23

#: the application modules that bind ``standard_cleanup`` by name
_APP_MODULES = (
    "repro.apps.matmul",
    "repro.apps.cp",
    "repro.apps.mri_fhd",
    "repro.apps.sad",
)


def _reference_sweep(app, monkeypatch, configs=None):
    """The pre-overhaul static stage, one configuration at a time.

    Restores the original drivers (PTX-string fixpoint detection,
    expansion-based region counting) and evaluates every kernel from
    scratch — no compile tier, no engine.  Kernels come from
    ``app.kernel`` so the builds match the optimized sweep's one for
    one (see the module docstring).  ``configs`` defaults to the whole
    space.
    """
    if configs is None:
        configs = list(app.space())
    times = {}
    with monkeypatch.context() as patched:
        for module in _APP_MODULES:
            patched.setattr(
                f"{module}.standard_cleanup", standard_cleanup_reference
            )
        patched.setattr(
            analysis, "count_regions", count_regions_reference
        )
        for config in configs:
            try:
                times[config] = (evaluate_kernel(app.kernel(config)), None)
            except LaunchError as error:
                times[config] = (None, str(error))
    return times


def _optimized_sweep(app, configs=None):
    if configs is None:
        configs = list(app.space())
    with ExecutionEngine.for_app(app, workers=1) as engine:
        entries = engine.evaluate_all(configs)
        stats = engine.stats
    return (
        {e.config: (e.metrics, e.invalid_reason) for e in entries},
        stats,
    )


def _pareto(results):
    ordered = [
        (config, metrics)
        for config, (metrics, reason) in results.items()
        if reason is None
    ]
    indices = pareto_indices(
        [(m.efficiency, m.utilization) for _, m in ordered]
    )
    return [ordered[i][0] for i in indices]


def _record(updates):
    """Merge ``updates`` into BENCH_static_pipeline.json."""
    try:
        with open(RESULT_PATH) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {}
    payload.update(updates)
    with open(RESULT_PATH, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _lookup_microbench(configs, repeats=2000):
    """O(1) cached-dict lookup vs. the linear tuple scan it replaced."""
    keys = list(dict(configs[0]))

    def linear_lookup(config, key):
        # the replaced implementation: scan the sorted items tuple
        for name, value in config._items:
            if name == key:
                return value
        raise KeyError(key)

    started = time.perf_counter()
    for _ in range(repeats):
        for config in configs:
            for key in keys:
                config[key]
    constant_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(repeats):
        for config in configs:
            for key in keys:
                linear_lookup(config, key)
    linear_seconds = time.perf_counter() - started

    lookups = repeats * len(configs) * len(keys)
    return {
        "lookups": lookups,
        "cached_dict_seconds": round(constant_seconds, 4),
        "linear_scan_seconds": round(linear_seconds, 4),
        "speedup_vs_linear_scan": round(linear_seconds / constant_seconds, 2),
    }


def test_static_full_space_speedup_vs_baseline(monkeypatch):
    apps = {"matmul": MatMul, "cp": CoulombicPotential}

    reference_seconds = 0.0
    optimized_seconds = 0.0
    per_app = {}
    compile_counters = {}
    for name, factory in apps.items():
        started = time.perf_counter()
        reference_results = _reference_sweep(factory(), monkeypatch)
        app_reference = time.perf_counter() - started

        started = time.perf_counter()
        optimized_results, stats = _optimized_sweep(factory())
        app_optimized = time.perf_counter() - started

        # Identical semantics: reports, invalid set, Pareto subset.
        assert optimized_results == reference_results
        assert _pareto(optimized_results) == _pareto(reference_results)

        reference_seconds += app_reference
        optimized_seconds += app_optimized
        per_app[name] = {
            "configurations": len(reference_results),
            "reference_seconds": round(app_reference, 3),
            "optimized_seconds": round(app_optimized, 3),
        }
        compile_counters[name] = {
            "compile_evaluations": stats.compile_evaluations,
            "compile_hits": stats.compile_hits,
            "static_evaluations": stats.static_evaluations,
        }

    speedup = reference_seconds / optimized_seconds
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    expected = baseline["full_space_static"]["speedup_vs_reference"]
    allowed_fraction = baseline["allowed_fraction"]

    _record({
        "benchmark": "static_pipeline",
        "space": "matmul full (96) + cp full static sweeps",
        "reference_sweep_seconds": round(reference_seconds, 3),
        "optimized_sweep_seconds": round(optimized_seconds, 3),
        "speedup_vs_reference": round(speedup, 2),
        "baseline_speedup": expected,
        "gate": f"speedup >= {allowed_fraction} * baseline",
        "per_app": per_app,
        "compile_tier": compile_counters,
        "configuration_lookup": _lookup_microbench(
            list(MatMul().space())[:8]
        ),
    })

    assert speedup >= allowed_fraction * expected, (
        f"static pipeline regressed: {speedup:.2f}x vs "
        f"baseline {expected}x (allowed fraction {allowed_fraction})"
    )


def test_sad_subset_and_full_space_static_stage(monkeypatch):
    """SAD row: subset equivalence, full-space seconds (not gated)."""
    configs = list(SumOfAbsoluteDifferences().space())
    subset = configs[::SAD_SUBSET_STRIDE]

    started = time.perf_counter()
    reference_results = _reference_sweep(
        SumOfAbsoluteDifferences(), monkeypatch, subset
    )
    subset_reference = time.perf_counter() - started

    started = time.perf_counter()
    optimized_results, _ = _optimized_sweep(SumOfAbsoluteDifferences(), subset)
    subset_optimized = time.perf_counter() - started

    assert optimized_results == reference_results
    assert _pareto(optimized_results) == _pareto(reference_results)

    started = time.perf_counter()
    full_results, stats = _optimized_sweep(SumOfAbsoluteDifferences(), configs)
    full_seconds = time.perf_counter() - started
    assert len(full_results) == len(configs)
    for config, result in optimized_results.items():
        assert full_results[config] == result

    # Reference seconds per configuration (the subset stands in for
    # the space: every SAD_SUBSET_STRIDE-th configuration in space
    # order) over the optimized full space's.
    per_configuration = (subset_reference / len(subset)) / (
        full_seconds / len(configs)
    )
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    expected = baseline["sad_full_space"]["speedup_per_configuration"]
    allowed_fraction = baseline["allowed_fraction"]

    _record({"sad": {
        "subset": f"space order, stride {SAD_SUBSET_STRIDE}",
        "subset_configurations": len(subset),
        "subset_reference_seconds": round(subset_reference, 3),
        "subset_optimized_seconds": round(subset_optimized, 3),
        "subset_speedup_vs_reference": round(
            subset_reference / subset_optimized, 2
        ),
        "full_space_configurations": len(configs),
        "full_space_optimized_seconds": round(full_seconds, 3),
        "full_space_speedup_per_configuration": round(per_configuration, 2),
        "baseline_speedup_per_configuration": expected,
        "gate": f"speedup per configuration >= {allowed_fraction} * baseline",
        "compile_tier": {
            "compile_evaluations": stats.compile_evaluations,
            "compile_hits": stats.compile_hits,
            "static_evaluations": stats.static_evaluations,
        },
    }})

    assert per_configuration >= allowed_fraction * expected, (
        f"SAD full-space static stage regressed: {per_configuration:.2f}x "
        f"per configuration vs baseline {expected}x "
        f"(allowed fraction {allowed_fraction})"
    )
