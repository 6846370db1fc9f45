"""Store entries under generated damage: an equal object or a counted miss.

The inputs are real artifacts, one per tier, from a store-backed
engine sweep of matmul's test instance: a ``config`` entry of a valid
configuration and one carrying a ``LaunchError`` reason, and one
``kernel``, ``compile``, ``resources``, ``trace`` and ``sm`` entry.
Each entry file is damaged by a generated change (one to eight byte
flips anywhere, header included; truncation at any length; appended
bytes; an empty file) or left intact.  Whatever the bytes,
:meth:`~repro.store.ResultStore.load` must not raise.  Intact bytes
load an equal object; damaged bytes load ``None``, count one
``store_corrupt`` and leave no file behind.

The default run draws hypothesis' default hundred damages per entry;
``--hypothesis-profile=deep`` (registered in tests/conftest.py, run
nightly) draws two thousand.
"""

from __future__ import annotations

import functools
import logging
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import MatMul
from repro.store import (
    COMPILE_TIER,
    CONFIG_TIER,
    KERNEL_TIER,
    RESOURCES_TIER,
    SM_TIER,
    TRACE_TIER,
    ResultStore,
)

ENTRIES = ("config-valid", "config-invalid", KERNEL_TIER, COMPILE_TIER,
           RESOURCES_TIER, TRACE_TIER, SM_TIER)


@functools.lru_cache(maxsize=1)
def artifacts():
    """``{entry name: (tier, key, object)}`` from one store-backed sweep
    of a valid and an unlaunchable matmul configuration."""
    app = MatMul().test_instance()
    configs = app.space().configurations()
    chosen = [configs[0], configs[-1]]  # the last one cannot launch
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        with app.search_engine(store=store) as engine:
            entries = engine.evaluate_all(chosen)
            engine.seconds_for([e.config for e in entries if e.is_valid])
        found = {}
        for tier in (KERNEL_TIER, COMPILE_TIER, RESOURCES_TIER, TRACE_TIER,
                     SM_TIER, CONFIG_TIER):
            for key in store.list_keys(tier):
                obj = store.load(tier, key)
                name = tier
                if tier == CONFIG_TIER:
                    (_metrics, reason), _seconds = obj
                    name = "config-invalid" if reason else "config-valid"
                found.setdefault(name, (tier, key, obj))
    assert sorted(found) == sorted(ENTRIES)
    return found


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` intact, or changed in one of the ways a disk or an
    interrupted copy changes a file."""
    kind = draw(st.sampled_from(["intact", "flip", "truncate", "append",
                                 "empty"]))
    if kind == "intact":
        return blob
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=64))
    if kind == "empty":
        return b""
    header = blob.index(b"\n") + 1
    # Half the flips land in the header, which is a small share of
    # the file but where most of the checks are.
    position = st.integers(0, header - 1) | st.integers(0, len(blob) - 1)
    flipped = bytearray(blob)
    for _ in range(draw(st.integers(1, 8))):
        flipped[draw(position)] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@pytest.mark.parametrize("entry", ENTRIES)
@given(data=st.data())
def test_load_returns_the_object_or_counts_a_miss(entry, data):
    tier, key, obj = artifacts()[entry]
    blob = ResultStore._encode(tier, obj)
    written = data.draw(damaged(blob))
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        path = store._entry_path(tier, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(written)
        logging.disable(logging.WARNING)
        try:
            loaded = store.load(tier, key)
        finally:
            logging.disable(logging.NOTSET)
        if written == blob:
            assert loaded == obj
            assert store.counts["store_corrupt"] == 0
            assert os.path.exists(path)
        else:
            assert loaded is None
            assert store.counts["store_corrupt"] == 1
            assert not os.path.exists(path)
