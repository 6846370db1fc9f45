"""Bounded in-memory cache of *decoded* store entries.

:class:`~repro.store.disk.ResultStore` pays an open + sha256 + unpickle
for every read, even when the same process asks for the same entry
again one sweep later.  :class:`DecodedCache` sits above the store and
below the per-runtime :class:`~repro.sim.fingerprint.SimulationCache`:
one daemon-wide map keyed ``(tier, key)`` holding the already-decoded
Python objects, so repeated sweeps — and *different runtimes* reading
the same fingerprints — never re-hash or re-unpickle a payload.

Semantics:

* **bounded LRU** — at most ``max_entries`` objects; a get refreshes
  recency, inserts evict the oldest.  The bound is on entry *count*
  (decoded objects have no cheap byte size), sized so a full tuning
  space fits comfortably.
* **thread-safe** — runtimes read through it from executor threads
  while the event loop's fast lane probes it; one plain lock, O(1) ops.
* **authoritative only for presence** — a miss here falls through to
  the store; corruption/eviction handling stays the store's job.  The
  cache never outlives trust in the store: entries are inserted only
  from values the store decoded (or this process itself computed and
  persisted).

Counters (:data:`DECODED_COUNTERS`) live in the ``counts`` registry,
surfaced with the current entry count by :meth:`counters` for
``/metrics``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import Counters

#: default entry bound: generous for tuning spaces (a full matmul
#: space is ~1k configs x 4 tiers) while keeping worst-case resident
#: decoded objects bounded
DEFAULT_MAX_ENTRIES = 4096

_MISSING = object()

#: this cache's counters, zero-filled
DECODED_COUNTERS = {
    "decoded_cache_hits": 0,
    "decoded_cache_misses": 0,
    "decoded_cache_evictions": 0,
}


class DecodedCache:
    """Daemon-wide LRU of decoded store artifacts, keyed ``(tier, key)``."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.max_entries = max_entries
        self.counts = Counters(DECODED_COUNTERS)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, Any], Any]" = OrderedDict()

    def get(self, tier: str, key: Any) -> Optional[Any]:
        """The decoded object, or ``None`` (a countable miss)."""
        marker = (tier, key)
        with self._lock:
            found = self._entries.get(marker, _MISSING)
            if found is _MISSING:
                self.counts.incr("decoded_cache_misses")
                return None
            self._entries.move_to_end(marker)
            self.counts.incr("decoded_cache_hits")
            return found

    def put(self, tier: str, key: Any, obj: Any) -> None:
        marker = (tier, key)
        with self._lock:
            self._entries[marker] = obj
            self._entries.move_to_end(marker)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.counts.incr("decoded_cache_evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> Dict[str, int]:
        snapshot = self.counts.as_dict()
        snapshot["decoded_cache_entries"] = len(self)
        return snapshot

    def __repr__(self) -> str:
        return f"DecodedCache({len(self)}/{self.max_entries} entries)"


__all__ = ["DECODED_COUNTERS", "DEFAULT_MAX_ENTRIES", "DecodedCache"]
