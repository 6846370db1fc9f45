"""Application protocol plumbing: caching, CPU model, run_config."""

import numpy as np
import pytest

from repro.apps import CoulombicPotential, all_applications


@pytest.fixture()
def app():
    return CoulombicPotential().test_instance()


class TestCaching:
    def test_metric_cache(self, app):
        config = app.default_configuration()
        first = app.evaluate(config)
        second = app.evaluate(config)
        assert first is second

    def test_time_cache(self, app):
        config = app.default_configuration()
        assert app.simulate(config) == app.simulate(config)
        assert config in app._time_cache

    def test_clear_caches(self, app):
        config = app.default_configuration()
        app.evaluate(config)
        app.simulate(config)
        app.clear_caches()
        assert not app._fingerprint_cache
        assert not app._time_cache
        assert not app._kernel_cache
        assert not app._baselines
        assert app.sim_cache.counters()["compile_evaluations"] == 0

    def test_baselines_are_built_once_per_instance(self):
        import gc
        import pickle
        import weakref

        from repro.apps import MatMul
        from repro.tuning import Configuration

        app = MatMul(n=64)
        for unroll in (1, 2, 4):
            app.kernel(Configuration({"tile": 8, "rect": 2, "unroll": unroll,
                                      "prefetch": False, "spill": False}))
        assert list(app._baselines) == [(8, 2)]
        assert not pickle.loads(pickle.dumps(app))._baselines
        # The memo lives on the instance: a dropped app is freed.
        alive = weakref.ref(app)
        del app
        gc.collect()
        assert alive() is None


class TestRunConfig:
    def test_inputs_not_mutated(self, app):
        rng = np.random.default_rng(0)
        arrays, scalars = app.make_inputs(rng)
        snapshots = {name: array.copy() for name, array in arrays.items()}
        app.run_config(app.default_configuration(), arrays, scalars)
        for name, snapshot in snapshots.items():
            np.testing.assert_array_equal(arrays[name], snapshot)

    def test_returns_only_outputs(self, app):
        rng = np.random.default_rng(0)
        arrays, scalars = app.make_inputs(rng)
        outputs = app.run_config(app.default_configuration(), arrays, scalars)
        assert set(outputs) == set(app.output_names)


class TestCpuModel:
    def test_every_app_has_positive_model(self):
        for app in all_applications():
            assert app.work_operations() > 0
            assert app.cpu_time_model_seconds() > 0

    def test_paper_columns_populated(self):
        for app in all_applications():
            assert app.paper_speedup > 0
            assert app.paper_space_size > 0
            assert app.paper_selected > 0
            assert 0 < app.paper_reduction_percent < 100


class TestSimulateDetailed:
    def test_detailed_result_consistent_with_cached_time(self, app):
        config = app.default_configuration()
        detailed = app.simulate_detailed(config)
        assert app.simulate(config) == pytest.approx(detailed.seconds)
