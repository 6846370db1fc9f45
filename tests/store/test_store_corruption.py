"""Corruption recovery: damage is a warned-about miss, never a crash.

Every flavour of on-disk damage — truncation, garbage, wrong schema,
torn writes, a hostile VERSION marker, even a concurrent-writer race —
must degrade to "recompute it", with the corruption counted and
logged.  That holds for the engine's ``config`` tier too: a damaged
per-configuration entry (valid or ``LaunchError``) is recomputed
through the full engine, never served.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import pickle

import pytest

from repro.apps import MatMul
from repro.store import (
    CONFIG_TIER,
    ResultStore,
    SCHEMA_VERSION,
    SM_TIER,
    TRACE_TIER,
    VERIFY_POLICIES,
)
from repro.store.disk import MAGIC

FP = "ab" * 32
PAYLOAD = {"trace": [1, 2, 3]}


# The whole damage matrix runs under every read-verification policy:
# the first read of a path is always fully verified (a local store()
# re-arms it), so relaxed policies must recover identically.
@pytest.fixture(params=VERIFY_POLICIES)
def populated(tmp_path, request):
    store = ResultStore(str(tmp_path / "store"), verify=request.param)
    store.store(TRACE_TIER, FP, PAYLOAD)
    return store


def entry_path(store: ResultStore) -> str:
    return store._entry_path(TRACE_TIER, FP)


def assert_recovers(store: ResultStore, caplog) -> None:
    """The contract: damaged entry reads as a miss, is counted and
    logged, the file is gone, and a recompute+rewrite round-trips."""
    with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
        assert store.load(TRACE_TIER, FP) is None
    assert store.counts["store_corrupt"] == 1
    assert store.counts["store_misses"] == 1
    assert not os.path.exists(entry_path(store))
    assert any("corrupt" in record.message for record in caplog.records)
    store.store(TRACE_TIER, FP, PAYLOAD)  # recompute path still works
    assert store.load(TRACE_TIER, FP) == PAYLOAD


def test_truncated_payload(populated, caplog):
    path = entry_path(populated)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[:-5])
    assert_recovers(populated, caplog)


def test_garbage_bytes(populated, caplog):
    with open(entry_path(populated), "wb") as handle:
        handle.write(b"\x93\x00complete nonsense\xff")
    assert_recovers(populated, caplog)


def test_empty_entry_file(populated, caplog):
    open(entry_path(populated), "wb").close()
    assert_recovers(populated, caplog)


def test_wrong_schema_version_in_entry(populated, caplog):
    path = entry_path(populated)
    header, payload = open(path, "rb").read().split(b"\n", 1)
    fields = header.split(b" ")
    fields[1] = str(SCHEMA_VERSION + 1).encode()
    with open(path, "wb") as handle:
        handle.write(b" ".join(fields) + b"\n" + payload)
    assert_recovers(populated, caplog)


def test_tier_mismatch(populated, caplog):
    path = entry_path(populated)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob.replace(b" trace ", b" compile ", 1))
    assert_recovers(populated, caplog)


def test_digest_mismatch_flipped_payload_byte(populated, caplog):
    path = entry_path(populated)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    assert_recovers(populated, caplog)


def test_undecodable_payload(populated, caplog):
    # Valid header and digest over a payload pickle.loads rejects:
    # the last line of defence, counted like any other corruption.
    import hashlib

    payload = b"not a pickle at all"
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{MAGIC} {SCHEMA_VERSION} {TRACE_TIER} {digest} {len(payload)}\n"
    with open(entry_path(populated), "wb") as handle:
        handle.write(header.encode() + payload)
    assert_recovers(populated, caplog)


# ----------------------------------------------------------------------
# The engine's config tier: one configuration's static entry + seconds.


def _flip_last_byte(path: str) -> None:
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def _truncate(path: str) -> None:
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[:-5])


def _matmul_sweep(store=None):
    """One valid and one LaunchError MatMul configuration through a
    fresh app and engine: ``(entries, seconds, stats)``."""
    app = MatMul().test_instance()
    configs = app.space().configurations()
    chosen = [configs[0], configs[-1]]  # the last one cannot launch
    with app.search_engine(store=store) as engine:
        entries = engine.evaluate_all(chosen)
        seconds = engine.seconds_for([e.config for e in entries if e.is_valid])
    keyed = [(e.config, e.metrics, e.invalid_reason) for e in entries]
    return keyed, seconds, engine.stats


@pytest.mark.parametrize("verify", VERIFY_POLICIES)
@pytest.mark.parametrize("damage", [_flip_last_byte, _truncate],
                         ids=["byte-flip", "truncated"])
@pytest.mark.parametrize("victim", ["valid", "invalid"])
def test_damaged_config_entry_is_recomputed(tmp_path, caplog, verify,
                                            damage, victim):
    reference, reference_seconds, _ = _matmul_sweep()
    root = str(tmp_path / "store")
    _matmul_sweep(ResultStore(root, verify=verify))
    config = reference[0 if victim == "valid" else 1][0]
    assert reference[1][2] is not None  # the invalid case is a real one
    store = ResultStore(root, verify=verify)
    key = MatMul().test_instance().result_key(config)
    damage(store._entry_path(CONFIG_TIER, key))

    with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
        entries, seconds, stats = _matmul_sweep(store)
    assert entries == reference
    assert seconds == reference_seconds
    assert stats.store_corrupt == 1
    assert stats.store_misses >= 1
    assert any("corrupt" in record.message for record in caplog.records)
    # Only the damaged configuration was recomputed.
    assert stats.static_evaluations == 1
    assert stats.simulations == (1 if victim == "valid" else 0)

    # The recompute rewrote the entry: a third run is all hits.
    entries, seconds, stats = _matmul_sweep(ResultStore(root, verify=verify))
    assert (entries, seconds) == (reference, reference_seconds)
    assert stats.store_corrupt == 0
    assert stats.static_evaluations == stats.simulations == 0


def _older_sm_entry_is_dropped_and_recomputed(tmp_path, caplog, schema):
    """Rewrite the one sm entry a replay stored as if a ``schema``
    build had written it, then check that the next replay counts it
    as a corrupt miss, replays, and writes it back under the current
    schema."""
    from repro.sim.fingerprint import SimulationCache
    from repro.sim.gpu import simulate_kernel

    app = MatMul().test_instance()
    config = app.default_configuration()
    kernel, sim_config = app.kernel(config), app.sim_config(config)
    root = str(tmp_path / "store")

    def simulate():
        cache = SimulationCache()
        cache.attach_store(ResultStore(root))
        return simulate_kernel(kernel, sim_config, cache=cache), cache

    first, _ = simulate()
    store = ResultStore(root)
    (key,) = store.list_keys(SM_TIER)
    path = store._entry_path(SM_TIER, key)
    header, payload = open(path, "rb").read().split(b"\n", 1)
    fields = header.split(b" ")
    assert fields[1] == str(SCHEMA_VERSION).encode()
    fields[1] = str(schema).encode()
    with open(path, "wb") as handle:
        handle.write(b" ".join(fields) + b"\n" + payload)

    with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
        again, cache = simulate()
    counters = cache.counters()
    assert again.sm == first.sm
    assert counters["store_corrupt"] == 1
    assert counters["store_misses"] == 1
    assert counters["events_replayed"] == first.sm.events_replayed
    assert any("schema" in record.message for record in caplog.records)

    # The replay rewrote the entry under the current schema.
    third, cache = simulate()
    assert third.sm == first.sm
    assert cache.counters()["events_replayed"] == 0


def test_v2_sm_entry_is_dropped_and_recomputed(tmp_path, caplog):
    """Schema 3 gave ``SMResult`` its ``events_skipped`` field: an sm
    entry a v2 build wrote is a counted miss and is replayed again,
    never served."""
    _older_sm_entry_is_dropped_and_recomputed(tmp_path, caplog, 2)


def test_v3_sm_entry_is_dropped_and_recomputed(tmp_path, caplog):
    """Schema 4 dropped ``SMResult``'s wave-convergence fields: an sm
    entry a v3 build wrote is a counted miss and is replayed again."""
    _older_sm_entry_is_dropped_and_recomputed(tmp_path, caplog, 3)


# ----------------------------------------------------------------------
# VERSION marker damage (never fatal: entries carry their own headers).


def test_version_marker_garbage_restamps(tmp_path, caplog):
    root = tmp_path / "store"
    ResultStore(str(root)).store(TRACE_TIER, FP, PAYLOAD)
    (root / "VERSION").write_bytes(b"\x00garbage")
    with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
        store = ResultStore(str(root))
    assert store.counts["store_corrupt"] == 1
    assert json.loads((root / "VERSION").read_text())["schema"] == SCHEMA_VERSION
    # entries written under the same (entry-level) schema still load
    assert store.load(TRACE_TIER, FP) == PAYLOAD


def test_version_marker_wrong_schema_restamps(tmp_path, caplog):
    root = tmp_path / "store"
    ResultStore(str(root))
    (root / "VERSION").write_text(json.dumps({"magic": MAGIC, "schema": 999}))
    with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
        store = ResultStore(str(root))
    assert store.counts["store_corrupt"] == 1
    assert any("schema" in r.message for r in caplog.records)
    assert json.loads((root / "VERSION").read_text())["schema"] == SCHEMA_VERSION
    store.store(TRACE_TIER, FP, PAYLOAD)
    assert store.load(TRACE_TIER, FP) == PAYLOAD


def test_version_marker_wrong_magic_restamps(tmp_path):
    root = tmp_path / "store"
    ResultStore(str(root))
    (root / "VERSION").write_text(json.dumps({"magic": "other-tool", "schema": 1}))
    store = ResultStore(str(root))
    assert store.counts["store_corrupt"] == 1
    assert json.loads((root / "VERSION").read_text())["magic"] == MAGIC


# ----------------------------------------------------------------------
# Concurrency.


def _writer(path: str, worker: int, count: int) -> None:
    store = ResultStore(path)
    for i in range(count):
        key = f"{worker:02x}{i:02x}" * 16
        store.store(TRACE_TIER, key, {"worker": worker, "i": i})
        # every writer also hammers one shared key
        store.store(TRACE_TIER, FP, {"worker": worker, "i": i})


def test_concurrent_writers_leave_no_corruption(tmp_path):
    """Several processes writing (including to the same key) must leave
    only complete, decodable entries — the atomic-replace + digest
    protocol, exercised for real."""
    path = str(tmp_path / "store")
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_writer, args=(path, w, 8)) for w in range(3)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    reader = ResultStore(path)
    assert reader.entry_count() == 3 * 8 + 1
    for worker in range(3):
        for i in range(8):
            key = f"{worker:02x}{i:02x}" * 16
            assert reader.load(TRACE_TIER, key) == {"worker": worker, "i": i}
    shared = reader.load(TRACE_TIER, FP)
    assert shared is not None and shared["worker"] in (0, 1, 2)
    assert reader.counts["store_corrupt"] == 0


def test_torn_write_simulated_by_partial_replace(populated, caplog):
    """A reader that races a (non-atomic, hypothetical) writer sees a
    short blob; the digest/length check rejects it instead of handing
    back a half-written artifact."""
    path = entry_path(populated)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    assert_recovers(populated, caplog)


def test_unpicklable_objects_fail_at_store_time(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
        store.store(TRACE_TIER, FP, lambda: None)
    # nothing half-written landed on disk
    assert store.entry_count() == 0
