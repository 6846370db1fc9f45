"""Store surface: load_many, list_keys, read verification, DecodedCache.

The bulk-read path must account hits/misses/corruption exactly like
per-key ``load`` (one ``bulk_reads`` tick per call is the only
difference), ``list_keys`` must invert the entry naming (including the
``sm`` tuple encoding), and every read hashes its payload.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.store import (
    DecodedCache,
    ResultStore,
    SM_TIER,
    TRACE_TIER,
)

FP = "ab" * 32
FP2 = "cd" * 32
FP3 = "ef" * 32


# ----------------------------------------------------------------------
# load_many


def test_load_many_accounts_like_load(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [1])
    store.store(TRACE_TIER, FP2, [2])
    found = store.load_many(TRACE_TIER, [FP, FP2, FP3])
    assert found == {FP: [1], FP2: [2]}
    assert (store.counts["store_hits"], store.counts["store_misses"]) == (2, 1)
    assert store.counts["store_bulk_reads"] == 1
    # a second batch is one more bulk read, not one per key
    store.load_many(TRACE_TIER, [FP, FP2])
    assert store.counts["store_bulk_reads"] == 2
    assert store.counts["store_hits"] == 4


def test_load_many_empty_batch(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.load_many(TRACE_TIER, []) == {}
    assert store.counts["store_bulk_reads"] == 1
    assert (store.counts["store_hits"], store.counts["store_misses"]) == (0, 0)


def test_load_many_sm_tuple_keys(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(SM_TIER, (FP, 3), {"cycles": 9})
    store.store(SM_TIER, (FP, 4), {"cycles": 11})
    found = store.load_many(SM_TIER, [(FP, 3), (FP, 4), (FP, 5)])
    assert found == {(FP, 3): {"cycles": 9}, (FP, 4): {"cycles": 11}}


def test_load_many_counts_corruption_per_entry(tmp_path, caplog):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [1])
    store.store(TRACE_TIER, FP2, [2])
    bad = store._entry_path(TRACE_TIER, FP2)
    blob = bytearray(open(bad, "rb").read())
    blob[-1] ^= 0xFF
    with open(bad, "wb") as handle:
        handle.write(bytes(blob))
    found = store.load_many(TRACE_TIER, [FP, FP2])
    assert found == {FP: [1]}
    assert store.counts["store_corrupt"] == 1
    assert store.counts["store_misses"] == 1
    assert not os.path.exists(bad)


# ----------------------------------------------------------------------
# list_keys


def test_list_keys_round_trips_every_tier(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.list_keys(TRACE_TIER) == []
    store.store(TRACE_TIER, FP2, [2])
    store.store(TRACE_TIER, FP, [1])
    store.store(SM_TIER, (FP, 3), {"cycles": 9})
    store.store(SM_TIER, (FP, 12), {"cycles": 20})
    assert store.list_keys(TRACE_TIER) == sorted([FP, FP2])
    assert store.list_keys(SM_TIER) == [(FP, 3), (FP, 12)]
    # listed keys load: the full preload loop works end to end
    assert store.load_many(SM_TIER, store.list_keys(SM_TIER)) == {
        (FP, 3): {"cycles": 9}, (FP, 12): {"cycles": 20},
    }


def test_list_keys_skips_unparseable_names(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(SM_TIER, (FP, 3), {"cycles": 9})
    stray = os.path.join(store.path, SM_TIER, "zz", "not-a-key-x.entry")
    os.makedirs(os.path.dirname(stray), exist_ok=True)
    open(stray, "w").close()
    assert store.list_keys(SM_TIER) == [(FP, 3)]


def test_list_keys_rejects_unknown_tier(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    with pytest.raises(ValueError, match="unknown store tier"):
        store.list_keys("nonsense")


# ----------------------------------------------------------------------
# Read verification


# "always" is the store's one read policy: every read hashes its payload.
@pytest.mark.parametrize("policy", ["always"])
def test_first_read_always_hashes(tmp_path, policy):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [1, 2, 3])
    assert store.counts["store_bytes_verified"] == 0  # writes hash via _encode, not here
    assert store.load(TRACE_TIER, FP) == [1, 2, 3]
    assert store.counts["store_bytes_verified"] > 0


def test_always_policy_hashes_every_read(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.store(TRACE_TIER, FP, [1])
    store.load(TRACE_TIER, FP)
    once = store.counts["store_bytes_verified"]
    assert once > 0
    store.load(TRACE_TIER, FP)
    assert store.counts["store_bytes_verified"] == 2 * once
    # a replaced entry is hashed again on its next read
    store.store(TRACE_TIER, FP, [1])
    store.load(TRACE_TIER, FP)
    assert store.counts["store_bytes_verified"] == 3 * once


# ----------------------------------------------------------------------
# DecodedCache


def test_decoded_cache_hit_miss_counters():
    cache = DecodedCache(max_entries=8)
    assert cache.get(TRACE_TIER, FP) is None
    cache.put(TRACE_TIER, FP, [1])
    assert cache.get(TRACE_TIER, FP) == [1]
    assert cache.counters() == {
        "decoded_cache_hits": 1,
        "decoded_cache_misses": 1,
        "decoded_cache_evictions": 0,
        "decoded_cache_entries": 1,
    }


def test_decoded_cache_keys_by_tier_and_key():
    cache = DecodedCache()
    cache.put(TRACE_TIER, FP, "trace")
    cache.put(SM_TIER, (FP, 3), "sm")
    assert cache.get(TRACE_TIER, FP) == "trace"
    assert cache.get(SM_TIER, FP) is None  # tier is part of the key
    assert cache.get(SM_TIER, (FP, 3)) == "sm"


def test_decoded_cache_lru_bound_and_recency():
    cache = DecodedCache(max_entries=2)
    cache.put(TRACE_TIER, "a", 1)
    cache.put(TRACE_TIER, "b", 2)
    assert cache.get(TRACE_TIER, "a") == 1  # refresh: "b" is now oldest
    cache.put(TRACE_TIER, "c", 3)
    assert cache.get(TRACE_TIER, "b") is None  # evicted
    assert cache.get(TRACE_TIER, "a") == 1
    assert cache.get(TRACE_TIER, "c") == 3
    assert cache.counts["decoded_cache_evictions"] == 1
    assert len(cache) == 2


def test_decoded_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="max_entries"):
        DecodedCache(max_entries=0)


def test_decoded_cache_concurrent_access():
    cache = DecodedCache(max_entries=64)
    errors = []

    def worker(worker_id: int) -> None:
        try:
            for i in range(200):
                cache.put(TRACE_TIER, f"{worker_id}-{i % 32}", i)
                cache.get(TRACE_TIER, f"{worker_id}-{i % 32}")
        except Exception as error:  # noqa: BLE001 - collected for assert
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 64
    assert (cache.counts["decoded_cache_hits"]
            + cache.counts["decoded_cache_misses"]) == 4 * 200
