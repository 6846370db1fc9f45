"""Content-addressed caching for the timing simulator.

Configuration spaces routinely contain distinct configurations whose
*post-transform* kernels are identical where the simulator is
concerned: MRI-FHD's seven invocation splits share one per-launch
kernel body, and SAD's search-geometry parameters leave many code
shapes untouched.  The engine already memoizes per-configuration, but
that cannot see across configurations.

:func:`kernel_fingerprint` hashes everything the compile pipeline and
the trace builder actually consume — the structured body with
registers renamed canonically, the launch *block* geometry, the
declared arrays, the parameter signature, and the simulator cost
model — and deliberately excludes the kernel name and the grid
dimensions.  Grid size only enters the timing estimate through
``blocks_per_sm_total``, which :func:`repro.sim.gpu.simulate_kernel`
recomputes per call, so two kernels with equal fingerprints yield
byte-identical resources, traces, and (for equal block samples)
SM results.

:class:`SimulationCache` is the fingerprint-keyed store threaded
through :func:`repro.sim.gpu.simulate_kernel`; one instance per
application shares work across its whole configuration space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.ir.kernel import Kernel
from repro.obs.metrics import Counters
from repro.ptx.view import KernelView, ViewCache
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cubin.resources import ResourceUsage
    from repro.metrics.model import MetricReport
    from repro.sim.sm import SMResult
    from repro.sim.trace import WarpTrace
    from repro.store.disk import ResultStore, StoreEntry


def kernel_fingerprint(
    kernel: Kernel,
    config: SimConfig = DEFAULT_SIM_CONFIG,
    views: Optional[ViewCache] = None,
) -> str:
    """Content hash of everything the simulation pipeline consumes.

    Two kernels with equal fingerprints are guaranteed identical
    resource usage, warp traces, and per-sample SM behaviour under
    ``config``.  The kernel *name* and the *grid* dimensions are
    deliberately excluded (see module docstring).

    The body's tokens come from the kernel's
    :class:`~repro.ptx.view.KernelView`, which spells them while it
    linearizes the body: registers renamed by first occurrence,
    parameters and arrays referred to by position.  With ``views``
    the view is taken from (or built into) that cache, where the
    static consumers that follow find it; otherwise it is built fresh.
    """
    view = views.view(kernel) if views is not None else KernelView(kernel)
    header = [
        f"blk|{kernel.block_dim.x}|{kernel.block_dim.y}|{kernel.block_dim.z}",
    ]
    header.extend(
        f"P|{p.dtype.value}|{int(p.is_pointer)}|{p.space.value}"
        for p in kernel.params
    )
    header.extend(
        f"S|{a.dtype.value}|{'x'.join(str(d) for d in a.shape)}"
        for a in kernel.shared_arrays
    )
    header.extend(
        f"L|{a.dtype.value}|{a.length}" for a in kernel.local_arrays
    )
    header.append(f"cfg|{config!r}")
    return view.digest("\n".join(header))


#: this cache's counters, zero-filled; replay telemetry accumulates on
#: SM *misses* only, so it counts real work
SIM_COUNTERS = {
    "fingerprint_resource_hits": 0,  # compile passes reused across configs
    "fingerprint_trace_hits": 0,     # warp traces reused across configs
    "fingerprint_sm_hits": 0,        # SM replays reused across configs
    "compile_hits": 0,               # static reports reused across configs
    "compile_evaluations": 0,        # full static compiles performed
    "waves_simulated": 0,            # full SM waves actually replayed
    "blocks_replayed": 0,            # blocks through the event loop
    # always 0 since replay became exact-only; perfbench still reads it
    "blocks_extrapolated": 0,
    "blocks_resident": 0,            # sum of per-replay residencies
    "events_replayed": 0,            # dynamic trace events replayed
    "events_skipped": 0,             # ... of which recurrence jumps covered
}


class SimulationCache:
    """Fingerprint-keyed store for compile and simulation artifacts.

    One instance is shared across every configuration of an
    application (see :attr:`repro.apps.base.Application.sim_cache`):

    * ``resources`` — the static compile pass (register allocation,
      shared-memory accounting), keyed by fingerprint;
    * ``traces`` — loop-compressed warp traces, keyed by fingerprint;
    * ``sm`` — :class:`~repro.sim.sm.SMResult`, keyed by
      ``(fingerprint, blocks_sampled)`` because the sampled block
      count is the only grid-derived input of the SM replay.  The
      caller rescales cycles by its own ``blocks_per_sm_total``.

    Hit counters and replay telemetry (:data:`SIM_COUNTERS`) live in
    :attr:`counts` and are read by the engine's
    :class:`repro.tuning.engine.EngineStats` view.  In a process pool
    each worker owns a private cache; the scheduler diffs two
    :meth:`counters` snapshots around each task and ships the delta
    back to the parent engine, so the aggregated telemetry stays exact
    under any worker count.

    A :class:`repro.store.ResultStore` can be layered underneath as a
    durable tier (:meth:`attach_store`): lookups read through to disk
    on an in-memory miss, and stores write back — immediately when
    this cache owns the store (``write_back=True``, the serial/parent
    mode), or into a backlog that pool workers drain and ship to the
    parent alongside their counter deltas (``write_back=False``, so
    one process owns all disk writes).  Artifacts read from or written
    to disk are byte-identical to recomputation, so results never
    depend on the store being present, cold, or warm.
    """

    def __init__(self, store: Optional["ResultStore"] = None) -> None:
        self._resources: Dict[str, "ResourceUsage"] = {}
        self._traces: Dict[str, "WarpTrace"] = {}
        self._sm: Dict[Tuple[str, int], "SMResult"] = {}
        #: full static-stage results (the compile tier): ptx accounting,
        #: ResourceUsage, and the assembled MetricReport, keyed by
        #: fingerprint.  Every field except ``efficiency``/``threads``
        #: is grid-independent; the consumer re-specializes those two
        #: from its own kernel (see Application.evaluate).
        self._compile: Dict[str, "MetricReport"] = {}
        self.counts = Counters(SIM_COUNTERS)
        self._store: Optional["ResultStore"] = None
        self._store_write_back = True
        self._store_backlog: List["StoreEntry"] = []
        self._store_seen: set = set()
        #: optional daemon-wide :class:`repro.store.DecodedCache`
        #: probed before the store on read-through, so repeated reads
        #: of one fingerprint never re-hash or re-unpickle — shared
        #: across every runtime of a service process.
        self._decoded = None
        if store is not None:
            self.attach_store(store)

    # -- persistent tier -------------------------------------------------

    @property
    def store(self) -> Optional["ResultStore"]:
        return self._store

    def attach_store(
        self, store: "ResultStore", write_back: bool = True
    ) -> None:
        """Layer a durable store under this cache.

        ``write_back=True`` persists artifacts to disk as they are
        produced (the serial and pool-parent mode); ``write_back=False``
        collects them in a backlog instead (pool workers — see
        :meth:`drain_store_backlog`), leaving all disk writes to one
        owning process.
        """
        self._store = store
        self._store_write_back = write_back
        self._store_backlog = []
        self._store_seen = set()

    def set_store_write_back(self, write_back: bool) -> None:
        self._store_write_back = bool(write_back)

    def set_decoded_cache(self, cache) -> None:
        """Share a :class:`repro.store.DecodedCache` with this cache.

        Probed before the store on every read-through and populated on
        every store hit or write, so sibling runtimes reading the same
        fingerprints skip the open/sha256/unpickle entirely.
        """
        self._decoded = cache

    def _store_load(self, tier: str, key) -> Optional[Any]:
        if self._store is None:
            return None
        if self._decoded is not None:
            found = self._decoded.get(tier, key)
            if found is not None:
                self._store_seen.add((tier, key))
                return found
        found = self._store.load(tier, key)
        if found is not None:
            # Loaded entries never need re-persisting from this process.
            self._store_seen.add((tier, key))
            if self._decoded is not None:
                self._decoded.put(tier, key, found)
        return found

    def _store_put(self, tier: str, key, obj: Any) -> None:
        """Persist (or backlog) one freshly produced artifact, once."""
        if self._store is None:
            return
        if self._decoded is not None:
            self._decoded.put(tier, key, obj)
        marker = (tier, key)
        if marker in self._store_seen:
            return
        self._store_seen.add(marker)
        if self._store_write_back:
            self._store.store(tier, key, obj)
        else:
            self._store_backlog.append((tier, key, obj))

    def drain_store_backlog(self) -> List["StoreEntry"]:
        """Artifacts produced since the last drain (worker mode only);
        the scheduler ships them to the parent with each result."""
        backlog, self._store_backlog = self._store_backlog, []
        return backlog

    def absorb_store_entries(self, entries: List["StoreEntry"]) -> None:
        """Fold worker-computed artifacts into this (parent) cache.

        Entries land in the in-memory tiers without touching the hit
        or work counters — the worker's counter delta already counted
        the real work — and are written back to the attached store
        (the parent owns write-back regardless of its own mode).
        """
        tiers = {
            "resources": self._resources,
            "trace": self._traces,
            "sm": self._sm,
            "compile": self._compile,
        }
        for tier, key, obj in entries:
            if tier == "sm":
                key = tuple(key)
            if tier in tiers:  # kernels live in the app's own memo
                tiers[tier].setdefault(key, obj)
            if self._store is not None and (tier, key) not in self._store_seen:
                self._store_seen.add((tier, key))
                self._store.store(tier, key, obj)

    # -- resources -------------------------------------------------------

    def lookup_resources(self, fingerprint: str) -> Optional["ResourceUsage"]:
        found = self._resources.get(fingerprint)
        if found is not None:
            self.counts.incr("fingerprint_resource_hits")
            return found
        found = self._store_load("resources", fingerprint)
        if found is not None:
            self._resources[fingerprint] = found
        return found

    def store_resources(
        self, fingerprint: str, resources: "ResourceUsage"
    ) -> None:
        self._resources[fingerprint] = resources
        self._store_put("resources", fingerprint, resources)

    # -- compile tier (full static-stage results) ------------------------

    def lookup_compile(self, fingerprint: str) -> Optional["MetricReport"]:
        """Counting lookup: a hit means a full static evaluation saved."""
        found = self._compile.get(fingerprint)
        if found is not None:
            self.counts.incr("compile_hits")
            return found
        found = self._store_load("compile", fingerprint)
        if found is not None:
            self._compile[fingerprint] = found
        return found

    def peek_compile(self, fingerprint: str) -> Optional["MetricReport"]:
        """Non-counting lookup for opportunistic consumers (e.g. the
        simulator threading in already-compiled resources)."""
        found = self._compile.get(fingerprint)
        if found is not None:
            return found
        found = self._store_load("compile", fingerprint)
        if found is not None:
            self._compile[fingerprint] = found
        return found

    def store_compile(self, fingerprint: str, report: "MetricReport") -> None:
        """Record a freshly evaluated configuration; counts the real
        compile work (``compile_evaluations``) and seeds the resource
        tier so a later simulation skips register allocation too."""
        self._compile[fingerprint] = report
        self.counts.incr("compile_evaluations")
        self._resources.setdefault(fingerprint, report.resources)
        self._store_put("compile", fingerprint, report)

    # -- traces ----------------------------------------------------------

    def lookup_trace(self, fingerprint: str) -> Optional["WarpTrace"]:
        found = self._traces.get(fingerprint)
        if found is not None:
            self.counts.incr("fingerprint_trace_hits")
            return found
        found = self._store_load("trace", fingerprint)
        if found is not None:
            self._traces[fingerprint] = found
        return found

    def store_trace(self, fingerprint: str, trace: "WarpTrace") -> None:
        self._traces[fingerprint] = trace
        self._store_put("trace", fingerprint, trace)

    # -- SM results ------------------------------------------------------

    def lookup_sm(
        self, fingerprint: str, blocks_sampled: int
    ) -> Optional["SMResult"]:
        key = (fingerprint, blocks_sampled)
        found = self._sm.get(key)
        if found is not None:
            self.counts.incr("fingerprint_sm_hits")
            return found
        found = self._store_load("sm", key)
        if found is not None:
            # Direct insertion: waves/events count real replay work
            # only, and this result's work was counted when it was
            # first computed (possibly by another process entirely).
            self._sm[key] = found
        return found

    def store_sm(
        self, fingerprint: str, blocks_sampled: int, result: "SMResult"
    ) -> None:
        self._sm[(fingerprint, blocks_sampled)] = result
        # Integer block counts (not the per-SM wave *fraction*, which
        # would merge meaninglessly across configurations and pool
        # workers): report tables derive any ratio at display time.
        counts = self.counts
        counts.incr("waves_simulated", result.waves_simulated)
        counts.incr("blocks_replayed", result.blocks_replayed)
        counts.incr("blocks_resident", result.blocks_resident)
        counts.incr("events_replayed", result.events_replayed)
        counts.incr("events_skipped", result.events_skipped)
        self._store_put("sm", (fingerprint, blocks_sampled), result)

    # -- built kernels (the app keeps them in memory) --------------------

    def load_kernel(self, key: str) -> Optional[Kernel]:
        """A kernel from the store's ``kernel`` tier, or ``None``."""
        return self._store_load("kernel", key)

    def store_kernel(self, key: str, kernel: Kernel) -> None:
        self._store_put("kernel", key, kernel)

    # -- bookkeeping -----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Telemetry snapshot: this cache's counters, plus the attached
        store's while one is attached."""
        snapshot = self.counts.as_dict()
        if self._store is not None:
            snapshot.update(self._store.counts.as_dict())
        return snapshot

    def clear(self) -> None:
        """Drop in-memory contents and reset this cache's counters.

        The attached store (contents *and* counters) is untouched —
        durability across clears and restarts is its whole purpose.
        """
        self._resources.clear()
        self._traces.clear()
        self._sm.clear()
        self._compile.clear()
        self.counts = Counters(SIM_COUNTERS)
        self._store_backlog = []
        self._store_seen = set()


__all__ = ["SIM_COUNTERS", "SimulationCache", "kernel_fingerprint"]
