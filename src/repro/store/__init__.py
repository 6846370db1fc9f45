"""Persistent, content-addressed result store (the durable cache tier).

See :mod:`repro.store.disk` for the store itself,
:mod:`repro.store.decoded` for the daemon-wide decoded-entry cache,
:mod:`repro.store.atomic` for the shared atomic-write helpers, and
docs/persistent_store.md for the
schema, locking, eviction, and corruption contracts.
"""

from repro.store.atomic import atomic_write_bytes, atomic_write_text, current_umask
from repro.store.decoded import DecodedCache
from repro.store.disk import (
    COMPILE_TIER,
    CONFIG_TIER,
    KERNEL_TIER,
    LAUNCH_TIER,
    RESOURCES_TIER,
    ResultStore,
    SCHEMA_VERSION,
    SM_TIER,
    STORE_COUNTERS,
    STORE_ENV,
    STORE_MAX_MB_ENV,
    TIERS,
    TRACE_TIER,
    resolve_store,
)

__all__ = [
    "COMPILE_TIER",
    "CONFIG_TIER",
    "DecodedCache",
    "KERNEL_TIER",
    "LAUNCH_TIER",
    "RESOURCES_TIER",
    "ResultStore",
    "SCHEMA_VERSION",
    "SM_TIER",
    "STORE_COUNTERS",
    "STORE_ENV",
    "STORE_MAX_MB_ENV",
    "TIERS",
    "TRACE_TIER",
    "atomic_write_bytes",
    "atomic_write_text",
    "current_umask",
    "resolve_store",
]
