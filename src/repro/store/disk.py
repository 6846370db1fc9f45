"""Disk-backed, content-addressed store for simulation artifacts.

The in-memory :class:`repro.sim.fingerprint.SimulationCache` makes a
warm sweep ~4x faster than a cold one, but it dies with the process.
:class:`ResultStore` is the durable tier underneath it: the same four
content-addressed families — compile results (whole
:class:`~repro.metrics.model.MetricReport`\\ s), compile-pass resource
usage, loop-compressed warp traces, and ``(fingerprint,
blocks_sampled)``-keyed SM replays — keyed by the PR 2/4
``kernel_fingerprint``, so any process that computes the same
post-transform kernel reads the artifact instead of recomputing it.
Two more families are keyed per configuration, by
:meth:`repro.apps.base.Application.result_key`: ``config`` holds its
finished results (static entry and measured seconds), which the
execution engine reads before building any kernel, so a resumed sweep
does no work; ``kernel`` holds its built kernel, which
:meth:`~repro.apps.base.Application.kernel` loads instead of
rebuilding.

On-disk layout (all paths relative to the store root)::

    VERSION                     # json: {"magic": ..., "schema": N}
    .lock                       # advisory flock for writers
    <tier>/<fp[:2]>/<name>.entry

where ``tier`` is one of ``resources`` / ``trace`` / ``sm`` /
``compile`` / ``config`` / ``kernel``, ``fp`` is the 64-hex-char
kernel fingerprint (the result key for ``config`` and ``kernel``), and
``name`` is that key itself
(``sm`` entries append ``-<blocks_sampled>``).  Each entry file is::

    repro-store <schema> <tier> <sha256(payload)> <len(payload)>\\n
    <payload>                   # pickled artifact

Contracts:

* **atomicity** — entries and the version marker are written via
  tmp-file + :func:`os.replace` (see :mod:`repro.store.atomic`), so a
  reader never observes a partial entry;
* **corruption tolerance** — a truncated, garbled, wrong-version, or
  undecodable entry is a *miss*: it is warned about, counted
  (``store_corrupt``), removed best-effort, and recomputed by the caller —
  never an exception on the hot path;
* **concurrency** — writers serialize on an advisory file lock
  (:mod:`repro.store.locking`); readers are lock-free and rely on the
  digest to reject torn or half-replaced entries;
* **bounded size** — with ``max_bytes`` set, the store keeps a
  *running* byte total and an in-memory ``path -> (mtime, size)``
  index, initialized by one full directory walk when the store is
  opened.  Each write costs O(1) ``stat`` calls: the total is updated
  incrementally, and only when it passes the ``max_bytes`` high-water
  mark does an LRU sweep run — evicting the oldest entries (by mtime,
  refreshed on every read hit) straight from the index, with no
  directory walk on the write path.  A full re-walk happens only on
  open, on corruption recovery, on a periodic schedule (every
  ``_RESYNC_WRITE_INTERVAL`` writes or ``_RESYNC_SECONDS`` between
  writes — amortized O(1) per write), or when the index drains while
  the running total still exceeds the bound.  The periodic resync is
  what keeps the bound anchored to *actual* disk usage when several
  writers share the root: between resyncs each writer only counts its
  own deltas, so the bound is per-writer-approximate with drift capped
  by the resync interval.
  Concurrent evictors are tolerated: an entry another process already
  unlinked is dropped from the index without raising and without
  inflating this store's ``store_evictions`` count.

Counters (:data:`STORE_COUNTERS`) live in the store's ``counts``
registry; :class:`~repro.sim.fingerprint.SimulationCache` reports them
alongside its own, so pool workers ship them home in their counter
deltas and totals stay exact under any worker count.

Read verification is a policy (``verify=``): ``"always"`` (the
default — every read hashes its payload, the original behaviour),
``"open"`` (hash only the first read of each entry file per instance),
or ``"sampled"`` (first read plus a deterministic 1-in-N of repeat
reads).  Under *every* policy the first read of a path is fully
verified, and a ``store()`` through this instance re-arms verification
for the replaced path — so the corruption matrix holds unchanged; the
relaxed policies only skip re-hashing payloads this instance has
already proven.  ``store_bytes_verified`` counts the bytes actually hashed,
making the sha256-per-read cost visible in telemetry.
"""

from __future__ import annotations

import json
import hashlib
import logging
import os
import pickle
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.metrics import Counters
from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.locking import FileLock, ensure_lock_file

logger = logging.getLogger(__name__)

#: bump when the entry encoding (header or pickle schema) changes;
#: entries written by another schema are dropped and recomputed.
#: v2: SMResult grew integer block counters replacing the float wave
#: fraction, so v1 sm-tier pickles no longer match the dataclass.
#: v3: SMResult grew ``events_skipped`` (the events a recurrence jump
#: covered); v2 sm-tier entries predate it and are replayed again.
#: v4: SMResult lost its wave-convergence fields when replay became
#: exact-only; v3 sm-tier entries are replayed again.
SCHEMA_VERSION = 4
MAGIC = "repro-store"

#: artifact families the store persists, one directory each
RESOURCES_TIER = "resources"
TRACE_TIER = "trace"
SM_TIER = "sm"
COMPILE_TIER = "compile"
#: per-configuration entries, keyed by ``Application.result_key``: the
#: engine's results (static entry + measured seconds) and the built
#: kernels ``Application.kernel`` would otherwise rebuild
CONFIG_TIER = "config"
KERNEL_TIER = "kernel"
#: per-configuration ``Launch`` records (fingerprint, kernel name,
#: block count), same key: simulating from one needs no kernel
LAUNCH_TIER = "launch"
TIERS = (RESOURCES_TIER, TRACE_TIER, SM_TIER, COMPILE_TIER, CONFIG_TIER,
         KERNEL_TIER, LAUNCH_TIER)

#: environment variable naming the store directory (the harness's
#: ``--store`` flag wins when both are given)
STORE_ENV = "REPRO_STORE"
#: optional size bound for the store, in mebibytes
STORE_MAX_MB_ENV = "REPRO_STORE_MAX_MB"
#: optional read-verification policy override
STORE_VERIFY_ENV = "REPRO_STORE_VERIFY"

#: read-verification policies: hash every read / only the first read
#: of each entry file / first read plus a deterministic 1-in-N sample
VERIFY_ALWAYS = "always"
VERIFY_OPEN = "open"
VERIFY_SAMPLED = "sampled"
VERIFY_POLICIES = (VERIFY_ALWAYS, VERIFY_OPEN, VERIFY_SAMPLED)

#: under ``verify="sampled"``, re-hash one in this many repeat reads
_VERIFY_SAMPLE_INTERVAL = 16

#: a store key: the fingerprint, or (fingerprint, blocks_sampled)
StoreKey = Union[str, Tuple[str, int]]
#: one transferable artifact: (tier, key, object) — what pool workers
#: ship back to the parent for write-back
StoreEntry = Tuple[str, StoreKey, Any]

_VERSION_FILE = "VERSION"
_LOCK_FILE = ".lock"
_ENTRY_SUFFIX = ".entry"

#: bounded stores resync their size index from a full walk every this
#: many writes (or after ``_RESYNC_SECONDS`` between writes) so the
#: ``max_bytes`` bound tracks *actual* disk usage under concurrent
#: writers, not just this instance's own deltas — between resyncs the
#: bound is per-writer-approximate
_RESYNC_WRITE_INTERVAL = 512
_RESYNC_SECONDS = 300.0

#: this store's counters, zero-filled
STORE_COUNTERS = {
    "store_hits": 0,            # artifacts read from disk
    "store_misses": 0,          # disk lookups that fell through
    "store_evictions": 0,       # entries dropped by the LRU bound
    "store_corrupt": 0,         # damaged entries dropped on read
    "store_bulk_reads": 0,      # amortized load_many batches
    "store_bytes_verified": 0,  # payload bytes sha256-checked on read
}


class ResultStore:
    """One on-disk store rooted at ``path`` (created if missing).

    ``max_bytes=None`` (the default) disables eviction.  The instance
    holds no open file handles between operations, so it survives
    ``fork`` and pickling — each pool worker's copy simply reads the
    same directory.
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        verify: str = VERIFY_ALWAYS,
    ) -> None:
        self.path = os.path.abspath(path)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        if verify not in VERIFY_POLICIES:
            raise ValueError(
                f"verify must be one of {VERIFY_POLICIES}, got {verify!r}"
            )
        self.max_bytes = max_bytes
        self.verify = verify
        self.counts = Counters(STORE_COUNTERS)
        #: entry paths whose payload digest this instance has already
        #: checked; a local ``store()`` (or corruption cleanup) re-arms
        #: verification by discarding the path.  Only consulted by the
        #: relaxed policies — ``"always"`` never skips the hash.
        self._verified_paths: set = set()
        self.verify_sample_interval = _VERIFY_SAMPLE_INTERVAL
        self._reads_since_sample = 0
        self._lock = FileLock(os.path.join(self.path, _LOCK_FILE))
        #: size accounting for the eviction bound: ``path -> (mtime,
        #: size)`` plus a running byte total.  ``None`` when the store
        #: is unbounded (no accounting cost at all) or before the first
        #: resync.  Writes keep it incrementally current; a full walk
        #: happens only in :meth:`_resync_index`.
        self._index: Optional[Dict[str, Tuple[float, int]]] = None
        self._total_bytes = 0
        #: periodic-resync schedule (write count / wall clock); tests
        #: may lower the interval to exercise drift recovery quickly
        self.resync_write_interval = _RESYNC_WRITE_INTERVAL
        self.resync_seconds = _RESYNC_SECONDS
        self._writes_since_resync = 0
        self._last_resync = time.time()
        self._ensure_layout()
        if self.max_bytes is not None:
            self._resync_index()

    # ------------------------------------------------------------------
    # Layout and versioning.

    def _ensure_layout(self) -> None:
        for tier in TIERS:
            os.makedirs(os.path.join(self.path, tier), exist_ok=True)
        ensure_lock_file(self._lock.path)
        version_path = os.path.join(self.path, _VERSION_FILE)
        stamp = {"magic": MAGIC, "schema": SCHEMA_VERSION}
        try:
            with open(version_path) as handle:
                found = json.load(handle)
            if not isinstance(found, dict) or found.get("magic") != MAGIC:
                raise ValueError(f"not a {MAGIC} marker: {found!r}")
        except FileNotFoundError:
            atomic_write_text(version_path, json.dumps(stamp) + "\n")
            return
        except (json.JSONDecodeError, UnicodeDecodeError, OSError, ValueError) as error:
            # A damaged marker never blocks the store: entries carry
            # their own versioned headers, so stale ones are dropped
            # lazily; re-stamp and continue.
            self.counts.incr("store_corrupt")
            logger.warning(
                "store %r: unreadable VERSION marker (%s); re-stamping "
                "schema %d — entries from other schemas will be dropped "
                "and recomputed", self.path, error, SCHEMA_VERSION,
            )
            atomic_write_text(version_path, json.dumps(stamp) + "\n")
            return
        if found.get("schema") != SCHEMA_VERSION:
            self.counts.incr("store_corrupt")
            logger.warning(
                "store %r: schema %r on disk, this build writes %d; "
                "existing entries will be dropped and recomputed",
                self.path, found.get("schema"), SCHEMA_VERSION,
            )
            atomic_write_text(version_path, json.dumps(stamp) + "\n")

    # ------------------------------------------------------------------
    # Key -> path mapping.

    @staticmethod
    def _entry_name(tier: str, key: StoreKey) -> str:
        if tier == SM_TIER:
            fingerprint, blocks = key
            return f"{fingerprint}-{int(blocks)}"
        return str(key)

    def _entry_path(self, tier: str, key: StoreKey) -> str:
        name = self._entry_name(tier, key)
        return os.path.join(self.path, tier, name[:2], name + _ENTRY_SUFFIX)

    # ------------------------------------------------------------------
    # Encoding.

    @staticmethod
    def _encode(tier: str, obj: Any) -> bytes:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        header = f"{MAGIC} {SCHEMA_VERSION} {tier} {digest} {len(payload)}\n"
        return header.encode("ascii") + payload

    def _should_verify(self, path: str) -> bool:
        """Whether this read hashes its payload, per the verify policy.

        The first read of any path is always verified regardless of
        policy — the relaxed modes only skip re-proving payloads this
        instance has already checked.
        """
        if self.verify == VERIFY_ALWAYS or path not in self._verified_paths:
            return True
        if self.verify == VERIFY_OPEN:
            return False
        self._reads_since_sample += 1
        if self._reads_since_sample >= self.verify_sample_interval:
            self._reads_since_sample = 0
            return True
        return False

    def _decode(
        self, blob: bytes, tier: str, path: str, check_digest: bool = True
    ) -> Optional[Any]:
        """Payload object, or ``None`` after counting + logging corruption."""
        newline = blob.find(b"\n")
        reason = None
        if newline < 0:
            reason = "no header line"
        else:
            fields = blob[:newline].split(b" ")
            payload = blob[newline + 1:]
            if len(fields) != 5 or fields[0] != MAGIC.encode("ascii"):
                reason = "malformed header"
            elif fields[1] != str(SCHEMA_VERSION).encode("ascii"):
                reason = f"schema {fields[1].decode('ascii', 'replace')!r} " \
                         f"(this build reads {SCHEMA_VERSION})"
            elif fields[2] != tier.encode("ascii"):
                reason = "tier mismatch"
            else:
                try:
                    length = int(fields[4])
                except ValueError:
                    length = -1
                digest_ok = True
                if length == len(payload) and check_digest:
                    self.counts.incr("store_bytes_verified", len(payload))
                    digest_ok = (
                        hashlib.sha256(payload).hexdigest().encode("ascii")
                        == fields[3]
                    )
                if length != len(payload):
                    reason = f"truncated payload ({len(payload)} of {length} bytes)"
                elif not digest_ok:
                    reason = "digest mismatch"
                else:
                    try:
                        obj = pickle.loads(payload)
                    except Exception as error:  # noqa: BLE001 - any unpickling failure
                        reason = f"undecodable payload: {type(error).__name__}: {error}"
                    else:
                        if check_digest:
                            self._verified_paths.add(path)
                        return obj
        self.counts.incr("store_corrupt")
        logger.warning(
            "store %r: dropping corrupt entry %r (%s); it will be "
            "recomputed", self.path, path, reason,
        )
        try:
            os.unlink(path)
        except OSError:
            pass
        self._forget_entry(path)
        self._verified_paths.discard(path)
        return None

    # ------------------------------------------------------------------
    # Load / store.

    def load(self, tier: str, key: StoreKey) -> Optional[Any]:
        """Read one artifact; ``None`` on miss or (counted) corruption."""
        return self._load_one(tier, key)

    def _load_one(
        self, tier: str, key: StoreKey, now: Optional[float] = None
    ) -> Optional[Any]:
        path = self._entry_path(tier, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.counts.incr("store_misses")
            return None
        except OSError as error:
            self.counts.incr("store_misses")
            logger.warning("store %r: unreadable entry %r (%s)",
                           self.path, path, error)
            return None
        obj = self._decode(blob, tier, path,
                           check_digest=self._should_verify(path))
        if obj is None:
            self.counts.incr("store_misses")
            return None
        self.counts.incr("store_hits")
        if now is None:
            now = time.time()
        try:
            # LRU recency: a hit makes the entry young.  Explicit
            # timestamps keep the in-memory index bit-equal to the
            # on-disk mtime without a second stat.
            os.utime(path, (now, now))
        except OSError:
            pass
        else:
            if self._index is not None and path in self._index:
                self._index[path] = (now, self._index[path][1])
        return obj

    def load_many(
        self, tier: str, keys: Iterable[StoreKey]
    ) -> Dict[StoreKey, Any]:
        """Bulk read: ``{key: artifact}`` for every key found.

        One amortized pass over the batch — a single timestamp covers
        every LRU recency refresh and the whole call counts one
        ``store_bulk_reads`` — while per-key hit/miss/corruption accounting
        stays identical to :meth:`load`.  Missing or corrupt entries
        are simply absent from the result (corruption is still warned
        about, counted, and cleaned up per entry).
        """
        self.counts.incr("store_bulk_reads")
        now = time.time()
        found: Dict[StoreKey, Any] = {}
        for key in keys:
            obj = self._load_one(tier, key, now)
            if obj is not None:
                found[key] = obj
        return found

    def list_keys(self, tier: str) -> List[StoreKey]:
        """Every key currently present in ``tier``, sorted.

        The inverse of :meth:`_entry_path`: ``sm`` names decode back to
        ``(fingerprint, blocks_sampled)`` tuples, other tiers to the
        fingerprint string.  Files another build left behind that do
        not parse as entry names are skipped — they would be dropped as
        corrupt on read anyway.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown store tier {tier!r}")
        keys: List[StoreKey] = []
        root = os.path.join(self.path, tier)
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(_ENTRY_SUFFIX):
                    continue
                name = filename[:-len(_ENTRY_SUFFIX)]
                if tier == SM_TIER:
                    fingerprint, _, blocks = name.rpartition("-")
                    try:
                        keys.append((fingerprint, int(blocks)))
                    except ValueError:
                        continue
                else:
                    keys.append(name)
        return sorted(keys)

    def store(self, tier: str, key: StoreKey, obj: Any) -> None:
        """Persist one artifact atomically (then enforce the size bound).

        With ``max_bytes`` set this is O(1) stats per write amortized:
        the running total absorbs the size delta of the (possibly
        replaced) entry, the LRU sweep only runs once the total passes
        the bound, and a full directory walk happens only on the
        periodic resync schedule that re-anchors the total to real
        disk usage under concurrent writers.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown store tier {tier!r}")
        blob = self._encode(tier, obj)
        path = self._entry_path(tier, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # The path's content is about to change: re-arm verification so
        # the relaxed policies hash the replacement on its first read.
        self._verified_paths.discard(path)
        with self._lock:
            if self.max_bytes is None:
                atomic_write_bytes(path, blob)
                return
            # Incremental accounting only sees *this* instance's
            # writes; a scheduled full resync (every K writes or T
            # seconds) re-anchors the total to actual disk usage so N
            # concurrent writers cannot silently grow the directory
            # toward N x max_bytes between drift recoveries.
            self._writes_since_resync += 1
            if (self._writes_since_resync >= self.resync_write_interval
                    or time.time() - self._last_resync
                    >= self.resync_seconds):
                self._resync_index()
            old_size = 0
            if self._index is not None and path in self._index:
                old_size = self._index[path][1]
            else:
                try:
                    old_size = os.stat(path).st_size
                except OSError:
                    old_size = 0
            atomic_write_bytes(path, blob)
            try:
                status = os.stat(path)
                mtime, size = status.st_mtime, status.st_size
            except OSError:
                mtime, size = time.time(), len(blob)
            if self._index is None:
                self._index = {}
            self._index[path] = (mtime, size)
            self._total_bytes += size - old_size
            if self._total_bytes > self.max_bytes:
                self._evict_lru()

    def put_entries(self, entries: Iterable[StoreEntry]) -> None:
        """Write-back a batch of artifacts (the pool parent's path)."""
        for tier, key, obj in entries:
            self.store(tier, key, obj)

    # ------------------------------------------------------------------
    # Eviction.

    def _walk_entries(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) for every entry file currently on disk."""
        found = []
        for tier in TIERS:
            root = os.path.join(self.path, tier)
            for dirpath, _dirnames, filenames in os.walk(root):
                for filename in filenames:
                    if not filename.endswith(_ENTRY_SUFFIX):
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        status = os.stat(path)
                    except OSError:
                        continue  # evicted or replaced concurrently
                    found.append((status.st_mtime, status.st_size, path))
        return found

    def _resync_index(self) -> None:
        """Rebuild the size-accounting index from one full walk.

        The only places a full directory walk happens on a bounded
        store: open, corruption recovery, the periodic write-count /
        wall-clock schedule (which bounds multi-writer drift), and
        eviction drift recovery (the index drained while the total
        still exceeded the bound — entries another process wrote are
        discovered here).
        """
        self._index = {
            path: (mtime, size)
            for mtime, size, path in self._walk_entries()
        }
        self._total_bytes = sum(size for _mtime, size in self._index.values())
        self._writes_since_resync = 0
        self._last_resync = time.time()

    def _forget_entry(self, path: str) -> None:
        """Drop one entry from the size accounting (it left the disk)."""
        if self._index is None:
            return
        forgotten = self._index.pop(path, None)
        if forgotten is not None:
            self._total_bytes -= forgotten[1]

    def _evict_lru(self) -> None:
        """Drop oldest entries until the store fits ``max_bytes``.

        Called with the writer lock held.  Recency is file mtime —
        refreshed on every read hit — so the sweep is LRU across every
        process sharing the store, not just this one.  The candidate
        list comes from the in-memory index (no walk); entries another
        process already unlinked are tolerated: they leave the index
        and the running total without raising and *without* counting
        toward this store's ``store_evictions``.
        """
        if self._index is None:
            self._resync_index()
        for resynced in (False, True):
            # Oldest first; ties broken by (size, path) — the exact
            # order the previous walk-per-write implementation used.
            for path, _meta in sorted(
                self._index.items(),
                key=lambda item: (item[1][0], item[1][1], item[0]),
            ):
                if self._total_bytes <= self.max_bytes:
                    return
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    # A concurrent evictor (or corruption cleanup in a
                    # reader) beat us to it: it is gone from disk, so
                    # it leaves the accounting, but it is not *our*
                    # eviction.
                    self._forget_entry(path)
                    continue
                except OSError:
                    continue  # unreadable/locked: skip, try the next
                self.counts.incr("store_evictions")
                self._forget_entry(path)
            if self._total_bytes <= self.max_bytes or resynced:
                return
            # The index drained (or went stale) while the total still
            # exceeds the bound — other processes sharing the root
            # have written entries we have never seen.  One full walk
            # resynchronizes, then a single retry pass evicts from the
            # fresh listing.
            self._resync_index()

    # ------------------------------------------------------------------
    # Introspection.

    def size_bytes(self) -> int:
        """Total bytes currently held in entry files."""
        return sum(size for _mtime, size, _path in self._walk_entries())

    def entry_count(self) -> int:
        return len(self._walk_entries())

    def counters(self) -> Dict[str, int]:
        """Telemetry snapshot of :data:`STORE_COUNTERS`."""
        return self.counts.as_dict()

    def __repr__(self) -> str:
        bound = "unbounded" if self.max_bytes is None else f"{self.max_bytes}B"
        return f"ResultStore({self.path!r}, {bound})"


def resolve_store(
    store: Union["ResultStore", str, None], environ=None
) -> Optional["ResultStore"]:
    """Normalize a store argument: instance, directory path, or ``None``.

    ``None`` defers to ``REPRO_STORE`` (empty/unset disables the
    store).  The size bound comes from ``REPRO_STORE_MAX_MB`` and the
    read-verification policy from ``REPRO_STORE_VERIFY``; a malformed
    value raises :class:`ValueError` naming the variable — the same
    actionable-diagnostics contract as ``resolve_workers``.
    """
    if isinstance(store, ResultStore):
        return store
    environ = os.environ if environ is None else environ
    if store is None:
        store = environ.get(STORE_ENV) or None
        if store is None:
            return None
    max_bytes = None
    bound = environ.get(STORE_MAX_MB_ENV)
    if bound and bound.strip():
        try:
            megabytes = float(bound)
        except ValueError:
            raise ValueError(
                f"{STORE_MAX_MB_ENV}={bound!r} is not a valid size "
                "(expected mebibytes as a number)"
            ) from None
        if megabytes <= 0:
            raise ValueError(
                f"{STORE_MAX_MB_ENV}={bound!r} must be positive "
                "(unset it to disable eviction)"
            )
        max_bytes = int(megabytes * 1024 * 1024)
    verify = environ.get(STORE_VERIFY_ENV)
    if verify is not None and verify.strip():
        verify = verify.strip()
        if verify not in VERIFY_POLICIES:
            raise ValueError(
                f"{STORE_VERIFY_ENV}={verify!r} is not a verification "
                f"policy (expected one of {', '.join(VERIFY_POLICIES)})"
            )
    else:
        verify = VERIFY_ALWAYS
    return ResultStore(str(store), max_bytes=max_bytes, verify=verify)


__all__ = [
    "COMPILE_TIER",
    "CONFIG_TIER",
    "KERNEL_TIER",
    "LAUNCH_TIER",
    "MAGIC",
    "RESOURCES_TIER",
    "ResultStore",
    "SCHEMA_VERSION",
    "SM_TIER",
    "STORE_COUNTERS",
    "STORE_ENV",
    "STORE_MAX_MB_ENV",
    "STORE_VERIFY_ENV",
    "TIERS",
    "TRACE_TIER",
    "VERIFY_POLICIES",
    "resolve_store",
]
