"""The store never changes results — only how fast they arrive.

Bit-equivalence of sweeps with the store absent / cold / warm, under
serial and pooled execution, plus the SimulationCache integration:
read-through, write-back, worker backlogs, and counter derivation.
"""

from __future__ import annotations

import pytest

from repro.apps.matmul import MatMul
from repro.sim.fingerprint import SIM_COUNTERS, SimulationCache
from repro.store import ResultStore


@pytest.fixture
def app():
    return MatMul().test_instance()


@pytest.fixture
def configs(app):
    return list(app.space())[:8]


def sweep(store, workers=1):
    """Fresh app + engine (a new process's worth of state) -> times."""
    app = MatMul().test_instance()
    engine = app.search_engine(workers=workers, store=store)
    try:
        configs = list(app.space())[:8]
        entries = engine.evaluate_all(configs)
        seconds = engine.seconds_for([e.config for e in entries if e.is_valid])
        return seconds, engine.stats
    finally:
        engine.close()


def test_absent_cold_warm_bit_identical(tmp_path):
    path = str(tmp_path / "store")
    storeless, _ = sweep(None)
    cold, cold_stats = sweep(path)
    warm, warm_stats = sweep(path)
    assert cold == storeless
    assert warm == storeless
    assert cold_stats.store_hits == 0 and cold_stats.store_misses > 0
    assert warm_stats.store_hits > 0 and warm_stats.store_misses == 0
    # a warm run does no replay or compile work at all
    assert warm_stats.events_replayed == 0
    assert warm_stats.compile_evaluations == 0


def test_pooled_sweep_with_store_matches_serial(tmp_path):
    """workers=2 with a store attached is bit-identical to workers=1
    (and to no store at all) — both cold and warm."""
    storeless, _ = sweep(None)
    serial_cold, _ = sweep(str(tmp_path / "serial"))
    pooled_cold, _ = sweep(str(tmp_path / "pooled"), workers=2)
    assert serial_cold == storeless
    assert pooled_cold == storeless
    serial_warm, _ = sweep(str(tmp_path / "serial"))
    pooled_warm, pooled_stats = sweep(str(tmp_path / "pooled"), workers=2)
    assert serial_warm == storeless
    assert pooled_warm == storeless
    assert pooled_stats.store_hits > 0


def test_pooled_cold_sweep_populates_store(tmp_path):
    """Workers never write the store; their backlogged artifacts must
    still land on disk via the parent's write-back."""
    path = str(tmp_path / "store")
    sweep(path, workers=2)
    store = ResultStore(path)
    assert store.entry_count() > 0
    # everything a serial cold sweep would persist is there
    serial_path = str(tmp_path / "serial")
    sweep(serial_path, workers=1)
    assert store.entry_count() == ResultStore(serial_path).entry_count()


def test_cross_store_warm_start(tmp_path, app, configs):
    """A store populated by one process warms a completely fresh one."""
    path = str(tmp_path / "store")
    app.sim_cache.attach_store(ResultStore(path))
    reference = [app.simulate(config) for config in configs]

    fresh = MatMul().test_instance()
    fresh.sim_cache.attach_store(ResultStore(path), write_back=False)
    warmed = [fresh.simulate(config) for config in configs]
    assert warmed == reference
    assert fresh.sim_cache.counts["events_replayed"] == 0
    assert fresh.sim_cache.store.counts["store_hits"] > 0


def test_kernels_load_from_the_store_instead_of_rebuilding(tmp_path, configs):
    """Built kernels persist under Application.result_key: a fresh app
    over the same store loads each one, equal to the built kernel.  A
    derived kernel (matmul's spilled twin) is not stored; it is
    re-derived from its loaded original, never built from scratch."""
    from repro.sim.fingerprint import kernel_fingerprint

    path = str(tmp_path / "store")
    first = MatMul().test_instance()
    first.sim_cache.attach_store(ResultStore(path))
    built = [first.kernel(config) for config in configs]

    second = MatMul().test_instance()
    second.sim_cache.attach_store(ResultStore(path))
    rebuilt = []
    original = second.build_kernel

    def recording(config):
        rebuilt.append(config)
        return original(config)

    second.build_kernel = recording
    loaded = [second.kernel(config) for config in configs]
    assert loaded == built
    assert [kernel_fingerprint(k, first.sim_config(c))
            for k, c in zip(loaded, configs)] == [
        kernel_fingerprint(k, first.sim_config(c))
        for k, c in zip(built, configs)
    ]
    derived = [config for config in configs if config["spill"]]
    assert derived and rebuilt == derived
    assert second.sim_cache.store.counts["store_hits"] == len(configs) - len(derived)


# ----------------------------------------------------------------------
# SimulationCache integration details.


def test_counters_omit_store_keys_without_a_store():
    cache = SimulationCache()
    assert "store_hits" not in cache.counters()


def test_counters_include_store_keys_with_a_store(tmp_path):
    cache = SimulationCache(store=ResultStore(str(tmp_path / "s")))
    counters = cache.counters()
    for name in ("store_hits", "store_misses",
                 "store_evictions", "store_corrupt"):
        assert counters[name] == 0


def test_counter_spec_is_the_single_source_of_truth():
    """Regression: counters() and clear() used to maintain the counter
    list by hand in two places; both must derive from the one
    declaration, SIM_COUNTERS."""
    cache = SimulationCache()
    assert list(cache.counters()) == list(SIM_COUNTERS)
    for name in SIM_COUNTERS:
        cache.counts.incr(name, 7)
    assert all(value == 7 for value in cache.counters().values())
    cache.clear()
    assert cache.counters() == SIM_COUNTERS


def test_clear_leaves_the_store_alone(tmp_path):
    store = ResultStore(str(tmp_path / "s"))
    cache = SimulationCache(store=store)
    cache.store_trace("ab" * 32, ["t"])
    cache.clear()
    assert cache.store is store
    assert store.entry_count() == 1  # durability is the whole point


def test_worker_mode_backlogs_instead_of_writing(tmp_path):
    store = ResultStore(str(tmp_path / "s"))
    cache = SimulationCache(store=store)
    cache.set_store_write_back(False)
    cache.store_trace("ab" * 32, ["t"])
    assert store.entry_count() == 0
    backlog = cache.drain_store_backlog()
    assert backlog == [("trace", "ab" * 32, ["t"])]
    assert cache.drain_store_backlog() == []  # drained exactly once

    parent = SimulationCache(store=ResultStore(str(tmp_path / "p")))
    parent.absorb_store_entries(backlog)
    assert parent.lookup_trace("ab" * 32) == ["t"]
    assert parent.store.entry_count() == 1


def test_absorb_does_not_inflate_work_counters(tmp_path):
    parent = SimulationCache(store=ResultStore(str(tmp_path / "p")))
    parent.absorb_store_entries([("sm", ("ab" * 32, 2), _FakeSM())])
    assert parent.counts["waves_simulated"] == 0
    assert parent.counts["events_replayed"] == 0
    # absorbed sm keys arrive as lists after pickling; lookup still hits
    parent.absorb_store_entries([("sm", ["cd" * 32, 3], _FakeSM())])
    assert parent.lookup_sm("cd" * 32, 3) is not None


class _FakeSM:
    waves_simulated = 5
    blocks_replayed = 10
    blocks_resident = 2
    events_replayed = 50
