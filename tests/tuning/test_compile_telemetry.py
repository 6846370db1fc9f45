"""Compile-tier telemetry must be nonzero whenever the static stage runs.

Regression for the benchmark report that showed ``compile_hits`` and
``compile_evaluations`` both 0: the sim-hotpath benchmark never ran the
static stage (it only called ``app.simulate``), so the counters were
*correctly* zero there — but nothing pinned that an engine-driven
static pass produces nonzero compile telemetry.  These tests do.
"""

from __future__ import annotations

from repro.apps.matmul import MatMul


def test_static_pass_counts_compile_evaluations():
    app = MatMul().test_instance()
    engine = app.search_engine(workers=1)
    configs = list(app.space())[:8]
    entries = engine.evaluate_all(configs)
    assert any(entry.is_valid for entry in entries)
    assert engine.stats.compile_evaluations > 0
    assert engine.stats.compile_evaluations == app.sim_cache.counts["compile_evaluations"]


def test_fingerprint_sharing_counts_compile_hits():
    """Two apps over the same space share nothing; one app evaluated
    through two engines shares the compile tier — the second engine's
    static pass must be all compile hits, not recompiles."""
    app = MatMul().test_instance()
    configs = list(app.space())[:8]
    first = app.search_engine(workers=1)
    first.evaluate_all(configs)
    evaluations = app.sim_cache.counts["compile_evaluations"]
    assert evaluations > 0

    second = app.search_engine(workers=1)
    second.evaluate_all(configs)
    assert app.sim_cache.counts["compile_evaluations"] == evaluations  # no recompiles
    assert second.stats.compile_hits > 0


def test_simulation_only_sweep_legitimately_reports_zero():
    """The flip side, pinned so the benchmark diagnosis stays honest:
    a measurement-only sweep never touches the compile tier."""
    app = MatMul().test_instance()
    for config in list(app.space())[:4]:
        app.simulate(config)
    assert app.sim_cache.counts["compile_evaluations"] == 0
    assert app.sim_cache.counts["compile_hits"] == 0
