"""The application protocol shared by the paper's four benchmarks.

Each application (Table 3) supplies:

* its optimization space (Table 4's "Parameters Varied"),
* a kernel generator mapping a configuration to IR,
* static-metric and simulated-time entry points for the search
  strategies (overridable — MRI-FHD aggregates across kernel
  invocations),
* a numpy reference and input generator for correctness testing, and
* a modeled single-thread-CPU time for the Table 3 speedup comparison.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cubin.resources import ResourceUsage
from repro.ir.kernel import Kernel
from repro.metrics.efficiency import efficiency
from repro.metrics.model import MetricReport, evaluate_kernel
from repro.obs.trace import span
from repro.ptx.view import ViewCache
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.sim.fingerprint import Launch, SimulationCache, kernel_fingerprint
from repro.sim.gpu import SimulationResult, simulate_kernel
from repro.tuning.space import ConfigSpace, Configuration

Arrays = Dict[str, np.ndarray]
Scalars = Dict[str, float]


class ConfigurationError(ValueError):
    """A configuration outside the application's space was requested."""


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """sha256 over every ``.py`` file of the ``repro`` package.

    Computed once per process, with the recipe of
    ``perfbench/run.py:source_revision``: files in sorted walk order,
    each contributing its package-relative path and its bytes.  Part of
    :meth:`Application.result_key`, so results stored by one version of
    the kernel generators, transforms or simulator are never served to
    another.
    """
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(package)
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(package)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


class Application(abc.ABC):
    """One benchmark and its optimization space."""

    #: short identifier used in tables and reports
    name: str = ""
    #: Table 3 speedup the paper measured over single-thread CPU
    paper_speedup: float = 0.0
    #: Table 4 columns for comparison in reports
    paper_space_size: int = 0
    paper_selected: int = 0
    paper_reduction_percent: int = 0

    def __init__(self) -> None:
        self._kernel_cache: Dict[Configuration, Kernel] = {}
        #: ``kernel`` calls so far; tells a kernel derived from another
        #: configuration's (its build asked for one) from one built
        #: from scratch
        self._kernel_requests = 0
        self._fingerprint_cache: Dict[Configuration, str] = {}
        self._time_cache: Dict[Configuration, float] = {}
        self._sim_cache = SimulationCache()
        #: one view per built body (kernels are never mutated once
        #: built); filled by the fingerprint, read by the compile pass
        #: and the trace
        self._views = ViewCache()
        #: pre-transform kernels by their build key (see
        #: :meth:`_shared_baseline`); per instance, so a dropped app
        #: takes its baselines with it
        self._baselines: Dict[Any, Kernel] = {}

    # ------------------------------------------------------------------
    # Space and kernel generation.

    @abc.abstractmethod
    def space(self) -> ConfigSpace:
        """The optimization space of Table 4."""

    @abc.abstractmethod
    def build_kernel(self, config: Configuration) -> Kernel:
        """Generate the kernel for one configuration."""

    @abc.abstractmethod
    def identity(self) -> Dict[str, Any]:
        """The problem parameters this instance was constructed with
        (JSON-serializable); two instances with equal identities
        generate the same kernels for every configuration."""

    def result_key(self, config: Configuration) -> str:
        """The result store's key for one configuration's entries (its
        results in the ``config`` tier, its kernel in the ``kernel``
        tier).

        A sha256 over everything that decides the configuration's
        kernel, static entry and measured time: the application class,
        its :meth:`identity`, the configuration, the effective
        :class:`~repro.sim.config.SimConfig` (so ``sim_overrides``
        count), and :func:`source_digest`.  Leaving any of them out
        would serve one problem's results to another.
        """
        from repro.tuning.engine import config_key

        cls = type(self)
        parts = (
            f"{cls.__module__}.{cls.__qualname__}",
            json.dumps(self.identity(), sort_keys=True),
            config_key(config),
            repr(self.effective_sim_config(config)),
            source_digest(),
        )
        return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()

    def _shared_baseline(self, *key) -> Kernel:
        """``self._baseline(*key)``, built once per instance.

        Many configurations transform one pre-transform kernel (matmul
        builds 6 baselines for its 48 unspilled configurations).  Every
        transform returns a fresh kernel and never mutates its input,
        so the memoized baseline is shared safely.
        """
        kernel = self._baselines.get(key)
        if kernel is None:
            kernel = self._baselines[key] = self._baseline(*key)
        return kernel

    def kernel(self, config: Configuration) -> Kernel:
        """Cached kernel generation.

        With a result store attached, built kernels also persist in its
        ``kernel`` tier under :meth:`result_key`: loading one is over
        ten times cheaper than building and cleaning it, so a process
        that meets a configuration some earlier process built (a
        daemon's first touch of a stored configuration's sibling)
        loads it.
        """
        self._kernel_requests += 1
        kernel = self._kernel_cache.get(config)
        if kernel is not None:
            return kernel
        key = None
        if self._sim_cache.store is not None:
            key = self.result_key(config)
            kernel = self._sim_cache.load_kernel(key)
        if kernel is None:
            requests = self._kernel_requests
            kernel = self.build_kernel(config)
            # A kernel derived from another configuration's (MRI-FHD's
            # invocation splits, matmul's spilled twins) is cheap to
            # derive again once that one is stored: persist only
            # kernels built from scratch.
            if key is not None and self._kernel_requests == requests:
                self._sim_cache.store_kernel(key, kernel)
        self._kernel_cache[config] = kernel
        return kernel

    #: optional ``dataclasses.replace`` overrides applied on top of
    #: :meth:`sim_config` everywhere this application consumes it
    #: (fingerprints, compiles, traces, replays).  Set before first
    #: use — e.g. ``{"simulated_waves": 8}`` samples a fresh app
    #: instance four times deeper than the default; benchmarks and
    #: tests use this instead of subclassing.
    sim_overrides: Optional[Dict[str, object]] = None

    def sim_config(self, config: Configuration) -> SimConfig:
        """Simulator cost model for one configuration."""
        del config
        return DEFAULT_SIM_CONFIG

    def effective_sim_config(self, config: Configuration) -> SimConfig:
        """:meth:`sim_config` with :attr:`sim_overrides` applied."""
        base = self.sim_config(config)
        if self.sim_overrides:
            base = dataclasses.replace(base, **self.sim_overrides)
        return base

    def trace_group_key(self, config: Configuration):
        """Batching key: configurations with equal keys share a trace
        program, so the engine measures them as one task: one pool
        dispatch, in which every configuration after the first finds
        its trace (and any SM replay it shares) in that process's
        ``sim_cache``.  ``None`` (the default) means "no grouping
        known" — every configuration is a task of its own.
        Applications whose spaces contain parameter axes that do not
        change the per-launch kernel body override this (MRI-FHD's
        invocation split).  Keys must be hashable.
        """
        del config
        return None

    # ------------------------------------------------------------------
    # Search-strategy entry points.

    def evaluate(self, config: Configuration) -> MetricReport:
        """Static metrics (Equations 1-2); raises LaunchError if invalid.

        Content-addressed: the post-transform kernel is fingerprinted
        and the full static result (ptx accounting, resources, the
        assembled report) is shared through ``sim_cache``'s compile
        tier, so configurations whose generated kernels coincide never
        recompile.  Only ``efficiency`` and ``threads`` depend on the
        grid (the fingerprint deliberately excludes it); a hit
        re-specializes those two fields from this kernel — bit-identical
        to a fresh :func:`~repro.metrics.model.evaluate_kernel` run.

        There is deliberately no per-configuration memo here: the
        :class:`~repro.tuning.engine.ExecutionEngine` is the single
        owner of per-config caching, so its ``static_evaluations`` /
        ``compile_*`` telemetry counts real work instead of being
        absorbed by a shadow cache (it used to undercount).
        """
        kernel = self.kernel(config)
        fingerprint = self._fingerprint(config, kernel)
        cached = self._sim_cache.lookup_compile(fingerprint)
        if cached is not None:
            return self._specialize_report(cached, kernel)
        report = evaluate_kernel(kernel, view=self._views.view(kernel))
        self._sim_cache.store_compile(fingerprint, report)
        return report

    def _fingerprint(self, config: Configuration, kernel: Kernel) -> str:
        fingerprint = self._fingerprint_cache.get(config)
        if fingerprint is None:
            fingerprint = kernel_fingerprint(
                kernel, self.effective_sim_config(config), views=self._views
            )
            self._fingerprint_cache[config] = fingerprint
        return fingerprint

    def _launch_for(self, config: Configuration):
        """``(kernel, launch)`` for :func:`simulate_kernel`.

        A configuration whose kernel is in memory is described from it,
        and its :class:`~repro.sim.fingerprint.Launch` record is kept
        in ``sim_cache`` (and so in an attached store).  Otherwise a
        record kept by an earlier sweep stands in for the kernel, which
        is then built only if an artifact it keys is missing.
        """
        key = self.result_key(config)
        kernel = self._kernel_cache.get(config)
        if kernel is None:
            launch = self._sim_cache.lookup_launch(key)
            if launch is not None:
                return (lambda: self.kernel(config)), launch
            kernel = self.kernel(config)
        launch = Launch(self._fingerprint(config, kernel), kernel.name,
                        kernel.num_blocks)
        self._sim_cache.store_launch(key, launch)
        return kernel, launch

    @staticmethod
    def _specialize_report(report: MetricReport, kernel: Kernel) -> MetricReport:
        """Adapt a fingerprint-shared report to this kernel's grid.

        Everything except ``efficiency`` and ``threads`` is a function
        of the fingerprint alone; those two are recomputed exactly the
        way ``evaluate_kernel`` computes them, so the specialized
        report is bit-identical to an uncached evaluation.
        """
        total_threads = kernel.total_threads
        if report.threads == total_threads:
            return report
        return dataclasses.replace(
            report,
            efficiency=efficiency(report.profile.instructions, total_threads),
            threads=total_threads,
        )

    @property
    def sim_cache(self) -> SimulationCache:
        """Content-addressed simulator cache shared across this app's space."""
        return self._sim_cache

    @sim_cache.setter
    def sim_cache(self, cache: SimulationCache) -> None:
        # Benchmarks (the warm-sweep phase) hand a fresh app instance a
        # pre-populated cache to measure pure cache-hit throughput.
        self._sim_cache = cache

    def _resources_for(self, config: Configuration) -> Optional[ResourceUsage]:
        """Compile results the static stage already produced, if any."""
        fingerprint = self._fingerprint_cache.get(config)
        if fingerprint is None:
            return None
        report = self._sim_cache.peek_compile(fingerprint)
        return report.resources if report is not None else None

    def _total_seconds(
        self, config: Configuration, result: SimulationResult
    ) -> float:
        """Whole-workload seconds from one launch's simulation.

        The default workload is a single launch; applications that run
        the kernel repeatedly (MRI-FHD's invocation split) override
        this to aggregate.
        """
        del config
        return result.seconds

    def simulate(self, config: Configuration) -> float:
        """Simulated execution time in seconds for the full workload."""
        if config not in self._time_cache:
            self.simulate_detailed(config)
        return self._time_cache[config]

    def simulate_detailed(self, config: Configuration) -> SimulationResult:
        """Full simulation evidence for one launch of one configuration.

        Shares every cache ``simulate`` uses: compile results are
        threaded in from the static stage, the fingerprint cache reuses
        traces and SM replays across configurations, and the scalar
        time derived from the result lands in ``_time_cache`` so a
        later ``simulate`` call does no work at all.
        """
        with span("app.simulate", cat="app", app=self.name,
                  config=dict(config)):
            kernel, launch = self._launch_for(config)
            result = simulate_kernel(
                kernel,
                self.effective_sim_config(config),
                resources=self._resources_for(config),
                cache=self._sim_cache,
                launch=launch,
                views=self._views,
            )
        self._time_cache.setdefault(config, self._total_seconds(config, result))
        return result

    def search_engine(self, workers: Optional[int] = 1,
                      retry_policy=None, fault_spec: Optional[str] = None,
                      store=None):
        """An :class:`~repro.tuning.engine.ExecutionEngine` over this app.

        The engine memoizes ``evaluate``/``simulate`` and (for
        ``workers > 1``) fans simulations out across the fault-tolerant
        sweep scheduler; share one engine across search strategies to
        avoid re-measuring the same configurations.  ``retry_policy``
        and ``fault_spec`` are forwarded to the scheduler (``None``
        reads ``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES`` and
        ``REPRO_FAULTS`` from the environment); ``store`` — a
        :class:`~repro.store.ResultStore` or directory path, with
        ``None`` reading ``REPRO_STORE`` — layers the persistent
        result store under this app's ``sim_cache`` and keeps each
        configuration's finished results in its ``config`` tier.
        """
        from repro.tuning.engine import ExecutionEngine

        return ExecutionEngine.for_app(
            self, workers=workers, retry_policy=retry_policy,
            fault_spec=fault_spec, store=store,
        )

    # ------------------------------------------------------------------
    # Correctness oracle support (run at reduced problem sizes).

    @abc.abstractmethod
    def test_instance(self) -> "Application":
        """A small-problem copy suitable for the functional interpreter."""

    @abc.abstractmethod
    def make_inputs(self, rng: np.random.Generator) -> Tuple[Arrays, Scalars]:
        """Random input buffers for this problem size."""

    @abc.abstractmethod
    def reference(self, arrays: Arrays, scalars: Scalars) -> Arrays:
        """Expected contents of the output arrays (numpy oracle)."""

    #: names of the output pointer parameters checked by tests
    output_names: Tuple[str, ...] = ()

    def run_config(
        self,
        config: Configuration,
        arrays: Arrays,
        scalars: Optional[Scalars] = None,
        engine: str = "scalar",
    ) -> Arrays:
        """Execute one configuration in the functional interpreter.

        ``engine`` selects the scalar reference interpreter or the
        faster vectorized one.  Returns the output arrays (inputs are
        not modified).
        """
        from repro.interp import launch, launch_vectorized

        runner = {"scalar": launch, "vectorized": launch_vectorized}[engine]
        work = {name: array.copy() for name, array in arrays.items()}
        runner(self.kernel(config), work, scalars or {})
        return {name: work[name] for name in self.output_names}

    # ------------------------------------------------------------------
    # Table 3 support.

    @abc.abstractmethod
    def work_operations(self) -> float:
        """Total arithmetic operations of the computation."""

    #: modeled effective single-thread CPU throughput (operations per
    #: second) for the paper's baseline — see DESIGN.md, Substitutions.
    cpu_effective_ops_per_second: float = 1e9

    def cpu_time_model_seconds(self) -> float:
        """Modeled optimized single-thread CPU time (Table 3 baseline)."""
        return self.work_operations() / self.cpu_effective_ops_per_second

    # ------------------------------------------------------------------

    def default_configuration(self) -> Configuration:
        """A reasonable hand-written starting configuration."""
        return next(iter(self.space()))

    def clear_caches(self) -> None:
        self._kernel_cache.clear()
        self._fingerprint_cache.clear()
        self._time_cache.clear()
        self._sim_cache.clear()
        self._views.clear()
        self._baselines.clear()

    def __getstate__(self) -> dict:
        # Keep pickles (process-pool workers) small and robust:
        # caches are recomputed on the other side.  The attached
        # result store (if any) survives — it holds no open handles
        # and is exactly what a remote copy should read from.
        state = dict(self.__dict__)
        state["_kernel_cache"] = {}
        state["_fingerprint_cache"] = {}
        state["_time_cache"] = {}
        state["_views"] = ViewCache()
        state["_baselines"] = {}
        state["_sim_cache"] = SimulationCache(store=self._sim_cache.store)
        return state
