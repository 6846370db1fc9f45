"""Satellites 1 and 3: the write path keeps size stats incrementally
(no directory walk per store()) and the LRU sweep tolerates entries
other processes unlink underneath it."""

from __future__ import annotations

import multiprocessing
import os
import random

from repro.store.disk import TRACE_TIER, ResultStore


def fingerprint(index: int) -> str:
    return f"{index:04x}" * 16


def count_walks(store: ResultStore):
    """Instrument one instance's _walk_entries; returns the counter."""
    walks = {"count": 0}
    original = store._walk_entries

    def counted():
        walks["count"] += 1
        return original()

    store._walk_entries = counted
    return walks


def test_bounded_writes_never_walk(tmp_path):
    """The O(entries)-walk-per-write regression stays fixed: after the
    open-time resync, neither plain writes, overwrites, nor
    index-served evictions touch the directory tree."""
    store = ResultStore(str(tmp_path / "store"), max_bytes=64 * 1024)
    walks = count_walks(store)
    for i in range(50):
        store.store(TRACE_TIER, fingerprint(i), "x" * 256)
    for i in range(10):  # overwrites reuse the indexed size
        store.store(TRACE_TIER, fingerprint(i), "y" * 300)
    assert walks["count"] == 0
    # The index absorbed every delta: it agrees with a fresh walk.
    assert store._total_bytes == store.size_bytes()


def test_eviction_served_from_index_without_walk(tmp_path):
    store = ResultStore(str(tmp_path / "store"), max_bytes=8 * 1024)
    walks = count_walks(store)
    for i in range(40):  # ~40 * ~700B >> 8KiB: must evict repeatedly
        store.store(TRACE_TIER, fingerprint(i), "z" * 600)
    assert walks["count"] == 0
    assert store.counts["store_evictions"] > 0
    assert store.size_bytes() <= store.max_bytes
    assert store._total_bytes == store.size_bytes()


def test_eviction_is_oldest_first(tmp_path):
    root = str(tmp_path / "store")
    seed = ResultStore(root)
    for i in range(6):
        seed.store(TRACE_TIER, fingerprint(i), "x" * 1000)
        # strictly increasing mtimes, oldest entry is fingerprint(0)
        os.utime(seed._entry_path(TRACE_TIER, fingerprint(i)),
                 (100 + i, 100 + i))
    store = ResultStore(root, max_bytes=seed.size_bytes() + 1)
    store.store(TRACE_TIER, fingerprint(6), "x" * 3000)
    assert store.counts["store_evictions"] >= 3
    survivors = [i for i in range(7)
                 if os.path.exists(store._entry_path(TRACE_TIER,
                                                     fingerprint(i)))]
    evicted = [i for i in range(7) if i not in survivors]
    # Only the oldest entries went; everything evicted predates
    # everything that survived.
    assert evicted == list(range(len(evicted)))
    assert 6 in survivors
    assert store.size_bytes() <= store.max_bytes


def test_concurrent_unlink_tolerated(tmp_path):
    """Entries another process removed mid-sweep leave the accounting
    without raising and without inflating this store's evictions."""
    store = ResultStore(str(tmp_path / "store"), max_bytes=1024 * 1024)
    for i in range(20):
        store.store(TRACE_TIER, fingerprint(i), "x" * 1000)
    # A rival evictor deletes half the entries behind our back.
    for i in range(0, 20, 2):
        os.unlink(store._entry_path(TRACE_TIER, fingerprint(i)))
    before = store.counts["store_evictions"]
    store.max_bytes = 1  # force a sweep that visits every stale path
    store._evict_lru()
    actually_unlinked = store.counts["store_evictions"] - before
    assert actually_unlinked == 10  # the ten entries still on disk
    assert store.size_bytes() == 0
    assert store._total_bytes == 0


def test_periodic_resync_bounds_multi_writer_drift(tmp_path):
    """The running total only sees this instance's writes; the
    scheduled resync re-anchors it to actual disk usage so entries
    other writers added still count against max_bytes."""
    root = str(tmp_path / "store")
    max_bytes = 8 * 1024
    writer = ResultStore(root, max_bytes=max_bytes)
    writer.resync_write_interval = 8
    walks = count_walks(writer)
    # A rival writer (no bound, so it never evicts) grows the
    # directory far past the bound behind this instance's back.
    rival = ResultStore(root)
    for i in range(30):
        rival.store(TRACE_TIER, fingerprint(1000 + i), "x" * 1000)
    # This writer's own traffic stays tiny — without the periodic
    # resync its total never crosses max_bytes and nothing evicts.
    for i in range(8):
        writer.store(TRACE_TIER, fingerprint(i), "y" * 10)
    assert walks["count"] == 1  # exactly the scheduled resync
    assert writer.counts["store_evictions"] > 0
    assert writer.size_bytes() <= max_bytes
    assert writer._total_bytes == writer.size_bytes()


def _hammer(root: str, seed: int, max_bytes: int) -> None:
    """Child process: one bounded store, many random-sized writes."""
    rng = random.Random(seed)
    store = ResultStore(root, max_bytes=max_bytes)
    for i in range(120):
        key = f"{seed:02x}{i:02x}" * 16
        store.store(TRACE_TIER, key, "x" * rng.randrange(200, 2000))


def test_two_writer_eviction_stress(tmp_path):
    """Two processes evicting out from under each other must never
    crash, and a fresh open + one write restores the size bound."""
    root = str(tmp_path / "store")
    max_bytes = 32 * 1024
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_hammer, args=(root, seed, max_bytes))
             for seed in (1, 2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    final = ResultStore(root, max_bytes=max_bytes)  # resyncs on open
    final.store(TRACE_TIER, fingerprint(9999), "x" * 500)
    assert final.size_bytes() <= max_bytes


def test_unbounded_store_keeps_no_index(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    walks = count_walks(store)
    for i in range(10):
        store.store(TRACE_TIER, fingerprint(i), "x")
    assert store._index is None
    assert walks["count"] == 0
