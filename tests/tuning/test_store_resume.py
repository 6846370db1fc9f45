"""Resuming a sweep from the result store's ``config`` tier.

The engine writes each configuration's static entry and measured time
to the store as the result arrives, and reads them back on a memo miss
before dispatching any work.  These tests pin the resume contract:

* a sweep killed between the static and simulation stages resumes
  without re-running the static stage, bit-identical to a fresh run;
* a store written under one worker count resumes under another with
  zero re-evaluation and zero re-simulation;
* results are written one by one as they stream in (the interrupt and
  partial-store cases live in tests/tuning/test_engine.py);
* the key covers every input that decides a result: changing any one
  of them is a miss, and cp's test instance never serves full-size cp;
* a fresh interpreter resumes matmul, cp and mri-fhd from the store
  alone, building no kernel.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.apps.base
from repro.apps import CoulombicPotential, MatMul, MriFhd, SumOfAbsoluteDifferences
from repro.apps.base import Application
from repro.store import CONFIG_TIER, ResultStore
from tests.tuning.test_static_pool import _matmul_configs

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


#: store read counters that depend on the worker partition when cold
COLD_READS = ("store_hits", "store_misses", "store_bytes_verified")


def _matmul_run(chosen, workers=1, store=None):
    app = MatMul().test_instance()
    with app.search_engine(workers=workers, store=store) as engine:
        entries = engine.evaluate_all(chosen)
        seconds = engine.seconds_for(chosen)
    keyed = [(e.metrics, e.invalid_reason) for e in entries]
    return keyed, seconds, engine.stats


def _stored_entries(root):
    store = ResultStore(root)
    return store.load_many(CONFIG_TIER, store.list_keys(CONFIG_TIER))


@pytest.fixture
def count_builds(monkeypatch):
    """Records every ``Application.kernel`` memo miss (a build or a
    ``kernel``-tier load) in this process from now on."""
    built = []
    original = Application.kernel

    def counting(self, config):
        if config not in self._kernel_cache:
            built.append(config)
        return original(self, config)

    monkeypatch.setattr(Application, "kernel", counting)
    return built


@pytest.mark.fast
class TestMidSweepResume:
    def test_resume_between_static_and_sim_stages(self, tmp_path):
        """A run killed after the static stage but before any
        simulation resumes to a bit-identical full result."""
        chosen = _matmul_configs()
        root = str(tmp_path / "store")

        first = MatMul().test_instance()
        with first.search_engine(workers=1, store=root) as engine:
            engine.evaluate_all(chosen)  # static only, then "killed"
        stored = _stored_entries(root)
        assert len(stored) == len(chosen)
        assert all(static is not None and seconds is None
                   for static, seconds in stored.values())

        resumed_entries, resumed_seconds, resumed_stats = _matmul_run(
            chosen, store=root
        )
        fresh_entries, fresh_seconds, _ = _matmul_run(chosen)

        assert resumed_entries == fresh_entries
        assert resumed_seconds == fresh_seconds
        # The static stage came back from disk; only simulation ran.
        assert resumed_stats.static_evaluations == 0
        assert resumed_stats.compile_evaluations == 0
        assert resumed_stats.simulations == len(chosen)

    @pytest.mark.parametrize("writer_workers,resumer_workers", [
        (2, 1),
        (1, 2),
    ])
    def test_resume_across_worker_counts(self, tmp_path, writer_workers,
                                         resumer_workers, count_builds):
        """A store written under one worker count resumes under
        another with bit-identical results and no work at all."""
        chosen = _matmul_configs()
        root = str(tmp_path / "store")

        _, written_seconds, _ = _matmul_run(
            chosen, workers=writer_workers, store=root
        )
        del count_builds[:]
        resumed_entries, resumed_seconds, resumed_stats = _matmul_run(
            chosen, workers=resumer_workers, store=root
        )
        assert count_builds == []
        fresh_entries, fresh_seconds, _ = _matmul_run(chosen)

        assert resumed_seconds == written_seconds == fresh_seconds
        assert resumed_entries == fresh_entries
        assert resumed_stats.simulations == 0
        assert resumed_stats.static_evaluations == 0
        assert resumed_stats.store_hits == len(chosen)
        assert resumed_stats.store_misses == 0
        # Nothing was left to dispatch, so no pool was started.
        assert resumed_stats.pool_batches == 0


    def test_store_counters_bit_identical_across_worker_counts(self, tmp_path):
        """Config-tier reads happen in the parent before dispatch, so
        with a store attached the counters are the same for workers=1
        and workers=2, cold and warm.  The exception is the cold run's
        store reads: pool workers read through their own private memo
        tiers while the parent writes their siblings' artifacts back,
        so how many of those reads hit depends on how tasks fall
        across workers."""
        chosen = _matmul_configs()
        compared = [
            name for name, value in _matmul_run(chosen)[2].as_dict().items()
            if isinstance(value, int) and name not in ("workers", "pool_batches")
        ]
        runs = {}
        for workers in (1, 2):
            root = str(tmp_path / f"store-{workers}")
            runs[workers] = [
                _matmul_run(chosen, workers=workers, store=root)
                for _ in ("cold", "warm")
            ]
        for phase, (serial, pooled) in enumerate(zip(runs[1], runs[2])):
            assert pooled[:2] == serial[:2]
            names = [n for n in compared if phase or n not in COLD_READS]
            serial_stats, pooled_stats = serial[2].as_dict(), pooled[2].as_dict()
            assert {n: pooled_stats[n] for n in names} == {
                n: serial_stats[n] for n in names
            }
        assert runs[1][0][2].store_misses > 0
        assert runs[1][1][2].store_hits == len(chosen)


@pytest.mark.fast
class TestStreamingWrites:
    def test_pooled_sweep_writes_each_result(self, tmp_path, monkeypatch):
        """Each static entry and each time is written the moment its
        pool task returns, not once at the end of the batch."""
        chosen = _matmul_configs()
        app = MatMul().test_instance()
        store = ResultStore(str(tmp_path / "store"))
        writes = []
        original = store.store

        with app.search_engine(workers=2, store=store) as engine:
            def spy(tier, key, obj):
                if tier == CONFIG_TIER:
                    writes.append((engine.stats.static_evaluations,
                                   engine.stats.simulations, obj))
                original(tier, key, obj)

            monkeypatch.setattr(store, "store", spy)
            engine.evaluate_all(chosen)
            engine.seconds_for(chosen)
            assert engine.stats.pool_batches == 2

        count = len(chosen)
        assert len(writes) == 2 * count
        # Static results: the k-th write follows the k-th evaluation.
        assert [w[0] for w in writes[:count]] == list(range(1, count + 1))
        # Times: the k-th write follows the k-th simulation and carries
        # the static entry along with the seconds.
        assert [w[1] for w in writes[count:]] == list(range(1, count + 1))
        assert all(static is not None and seconds is not None
                   for _, _, (static, seconds) in writes[count:])


@pytest.mark.fast
class TestKeySoundness:
    """Every input of ``Application.result_key`` matters."""

    APPS = (CoulombicPotential, MatMul, MriFhd, SumOfAbsoluteDifferences)
    #: an alternative value for every identity() parameter
    CHANGED = {
        "num_points": 3072, "num_atoms": 8, "n": 64, "num_voxels": 2048,
        "num_samples": 16, "layout": "aos", "width": 32, "height": 16,
        "search_width": 8,
    }

    @pytest.mark.parametrize("cls", APPS, ids=lambda cls: cls.__name__)
    def test_equal_inputs_give_equal_keys(self, cls):
        config = cls().default_configuration()
        assert cls().result_key(config) == cls().result_key(config)

    @pytest.mark.parametrize("cls", APPS, ids=lambda cls: cls.__name__)
    def test_each_identity_parameter_changes_the_key(self, cls):
        base = cls()
        config = base.default_configuration()
        identity = base.identity()
        assert identity  # every app names its problem parameters
        for name, value in identity.items():
            changed = cls(**{**identity, name: self.CHANGED[name]})
            assert changed.identity()[name] != value
            assert changed.result_key(config) != base.result_key(config), name

    def test_app_class_changes_the_key(self):
        class RenamedCp(CoulombicPotential):
            pass

        config = CoulombicPotential().default_configuration()
        assert RenamedCp().identity() == CoulombicPotential().identity()
        assert (RenamedCp().result_key(config)
                != CoulombicPotential().result_key(config))

    def test_configuration_changes_the_key(self):
        app = CoulombicPotential()
        first, second = app.space().configurations()[:2]
        assert app.result_key(first) != app.result_key(second)

    def test_sim_overrides_change_the_key(self):
        app = MatMul()
        config = app.default_configuration()
        before = app.result_key(config)
        app.sim_overrides = {"simulated_waves": 3}
        assert app.result_key(config) != before

    def test_source_digest_changes_the_key(self, monkeypatch):
        app = MatMul()
        config = app.default_configuration()
        before = app.result_key(config)
        monkeypatch.setattr(repro.apps.base, "source_digest", lambda: "0" * 64)
        assert app.result_key(config) != before

    def test_sim_overrides_are_a_store_miss(self, tmp_path):
        chosen = _matmul_configs(count=3)
        root = str(tmp_path / "store")
        _matmul_run(chosen, store=root)
        app = MatMul().test_instance()
        app.sim_overrides = {"simulated_waves": 3}
        with app.search_engine(store=root) as engine:
            engine.evaluate_all(chosen)
            engine.seconds_for(chosen)
            assert engine.stats.static_evaluations == len(chosen)

    def test_cp_test_instance_results_never_served_to_full_size_cp(
        self, tmp_path, count_builds
    ):
        """Regression: resume state keyed only by app name and
        configuration handed full-size cp the test instance's times
        (2.56e-06 s instead of 9.24e-04 s) without simulating."""
        small = CoulombicPotential().test_instance()
        configs = small.space().configurations()[:6]
        root = str(tmp_path / "store")
        with small.search_engine(store=root) as engine:
            small_metrics = [e.metrics for e in engine.evaluate_all(configs)]
            small_seconds = engine.seconds_for(configs)

        full = CoulombicPotential()
        with full.search_engine(store=root) as engine:
            full_metrics = [e.metrics for e in engine.evaluate_all(configs)]
            full_seconds = engine.seconds_for(configs)
            assert engine.stats.static_evaluations == len(configs)
            assert engine.stats.simulations == len(configs)
        with CoulombicPotential().search_engine() as engine:
            assert full_metrics == [e.metrics for e in engine.evaluate_all(configs)]
            assert full_seconds == engine.seconds_for(configs)
        assert all(f != s for f, s in zip(full_seconds, small_seconds))

        # Control: the test instance itself is served from the store,
        # without building a single kernel.
        del count_builds[:]
        again = CoulombicPotential().test_instance()
        with again.search_engine(store=root) as engine:
            assert [e.metrics for e in engine.evaluate_all(configs)] == small_metrics
            assert engine.seconds_for(configs) == small_seconds
            assert engine.stats.static_evaluations == 0
            assert engine.stats.simulations == 0
        assert count_builds == []


RESUME_SCRIPT = """
import json, sys
from repro.apps import CoulombicPotential, MatMul, MriFhd
from repro.apps.base import Application
from repro.tuning.search import full_exploration
from repro.harness.payload import search_result_payload

builds = []
original = Application.kernel
def counting(self, config):
    if config not in self._kernel_cache:
        builds.append(1)
    return original(self, config)
Application.kernel = counting

store = sys.argv[1] or None
out = {"payloads": {}, "stats": {}}
for cls in (MatMul, CoulombicPotential, MriFhd):
    app = cls().test_instance()
    with app.search_engine(store=store) as engine:
        result = full_exploration(app.space().configurations(), engine=engine)
    out["payloads"][app.name] = json.dumps(
        search_result_payload(result), sort_keys=True)
    out["stats"][app.name] = engine.stats.as_dict()
out["builds"] = len(builds)
print(json.dumps(out))
"""


def _fresh_interpreter(store):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", RESUME_SCRIPT, store], env=env,
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout)


def test_fresh_interpreter_resumes_with_no_work(tmp_path):
    """Cold run, then a fresh interpreter against the store it left:
    no static evaluation, no simulation, no replayed event, no kernel
    built — and payloads byte-identical to a storeless run."""
    root = str(tmp_path / "store")
    storeless = _fresh_interpreter("")
    cold = _fresh_interpreter(root)
    warm = _fresh_interpreter(root)
    assert cold["payloads"] == storeless["payloads"]
    assert warm["payloads"] == storeless["payloads"]
    assert cold["builds"] > 0
    assert warm["builds"] == 0
    for name, stats in warm["stats"].items():
        assert stats["static_evaluations"] == 0, name
        assert stats["simulations"] == 0, name
        assert stats["events_replayed"] == 0, name
        assert stats["store_hits"] > 0 and stats["store_misses"] == 0, name
