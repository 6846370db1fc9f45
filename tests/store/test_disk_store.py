"""ResultStore behaviour: round-trips, counters, LRU eviction, resolve."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.store import (
    COMPILE_TIER,
    RESOURCES_TIER,
    ResultStore,
    SM_TIER,
    STORE_ENV,
    STORE_MAX_MB_ENV,
    TIERS,
    TRACE_TIER,
    resolve_store,
)

FP = "ab" * 32  # a 64-hex-char fingerprint
FP2 = "cd" * 32


def test_round_trips_every_tier(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    payloads = {
        RESOURCES_TIER: {"registers": 12, "shared": 256},
        TRACE_TIER: ["ld", "st", "mad"],
        COMPILE_TIER: {"report": [1.5, 2.5]},
    }
    for tier, obj in payloads.items():
        store.store(tier, FP, obj)
        assert store.load(tier, FP) == obj
    store.store(SM_TIER, (FP, 3), {"cycles": 99})
    assert store.load(SM_TIER, (FP, 3)) == {"cycles": 99}
    # SM results for different sampled-block counts are distinct entries
    assert store.load(SM_TIER, (FP, 4)) is None


def test_hit_and_miss_counters(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.load(TRACE_TIER, FP) is None
    store.store(TRACE_TIER, FP, [1])
    store.load(TRACE_TIER, FP)
    assert (store.counts["store_hits"], store.counts["store_misses"]) == (1, 1)
    counters = store.counters()
    bytes_verified = counters.pop("store_bytes_verified")
    assert counters == {
        "store_hits": 1, "store_misses": 1,
        "store_evictions": 0, "store_corrupt": 0,
        "store_bulk_reads": 0,
    }
    assert bytes_verified > 0  # the hit's payload was digest-checked


def test_persists_across_instances(tmp_path):
    path = str(tmp_path / "store")
    ResultStore(path).store(COMPILE_TIER, FP, {"v": 1})
    reopened = ResultStore(path)
    assert reopened.load(COMPILE_TIER, FP) == {"v": 1}
    assert reopened.counts["store_hits"] == 1  # counters are per-instance, not persisted


def test_unknown_tier_rejected(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    with pytest.raises(ValueError, match="unknown store tier"):
        store.store("bogus", FP, {})


def test_max_bytes_validation(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        ResultStore(str(tmp_path / "store"), max_bytes=0)


def test_layout_created(tmp_path):
    root = tmp_path / "store"
    ResultStore(str(root))
    for tier in TIERS:
        assert (root / tier).is_dir()
    assert (root / "VERSION").exists()
    assert (root / ".lock").exists()


def test_overwrite_replaces_entry(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [1])
    store.store(TRACE_TIER, FP, [2])
    assert store.load(TRACE_TIER, FP) == [2]
    assert store.entry_count() == 1


def test_lru_evicts_oldest_first(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    blob = "x" * 2000
    store.store(TRACE_TIER, FP, blob)
    store.store(TRACE_TIER, FP2, blob)
    # Age the first entry well into the past, then bound the store so
    # only ~one entry fits: the next write must evict the old one.
    old_path = store._entry_path(TRACE_TIER, FP)
    os.utime(old_path, (1, 1))
    bounded = ResultStore(str(tmp_path / "store"),
                          max_bytes=store.size_bytes() + 10)
    bounded.store(COMPILE_TIER, FP, blob)
    assert bounded.counts["store_evictions"] >= 1
    assert not os.path.exists(old_path)
    # the younger trace and the fresh compile entry survived
    assert bounded.load(TRACE_TIER, FP2) == blob
    assert bounded.load(COMPILE_TIER, FP) == blob


def test_read_hit_refreshes_recency(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, "a")
    path = store._entry_path(TRACE_TIER, FP)
    os.utime(path, (1, 1))
    store.load(TRACE_TIER, FP)
    assert os.stat(path).st_mtime > 1  # a hit makes the entry young


def test_store_survives_pickling(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [7])
    clone = pickle.loads(pickle.dumps(store))
    assert clone.load(TRACE_TIER, FP) == [7]
    clone.store(TRACE_TIER, FP2, [8])  # lock re-acquires cleanly
    assert store.load(TRACE_TIER, FP2) == [8]


def test_size_and_count_introspection(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert (store.size_bytes(), store.entry_count()) == (0, 0)
    store.store(TRACE_TIER, FP, "abc")
    assert store.entry_count() == 1
    assert store.size_bytes() > 0


# ----------------------------------------------------------------------
# resolve_store


def test_resolve_passthrough_and_disabled(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert resolve_store(store) is store
    assert resolve_store(None, environ={}) is None
    assert resolve_store(None, environ={STORE_ENV: ""}) is None


def test_resolve_path_and_env(tmp_path):
    direct = resolve_store(str(tmp_path / "a"))
    assert isinstance(direct, ResultStore) and direct.max_bytes is None
    from_env = resolve_store(None, environ={STORE_ENV: str(tmp_path / "b")})
    assert from_env.path == str(tmp_path / "b")


def test_resolve_size_bound(tmp_path):
    environ = {STORE_MAX_MB_ENV: "2.5"}
    store = resolve_store(str(tmp_path / "a"), environ=environ)
    assert store.max_bytes == int(2.5 * 1024 * 1024)


@pytest.mark.parametrize("bad", ["lots", "-1", "0", "nan", "inf", "1e400", "1e-9"])
def test_resolve_bad_size_names_the_variable(tmp_path, bad):
    with pytest.raises(ValueError, match=STORE_MAX_MB_ENV):
        resolve_store(str(tmp_path / "a"), environ={STORE_MAX_MB_ENV: bad})
