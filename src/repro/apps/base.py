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
from typing import Dict, Optional, Tuple

import numpy as np

import dataclasses

from repro.cubin.resources import ResourceUsage
from repro.ir.kernel import Kernel
from repro.metrics.efficiency import efficiency
from repro.metrics.model import MetricReport, evaluate_kernel
from repro.obs.trace import span
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.sim.fingerprint import SimulationCache, kernel_fingerprint
from repro.sim.gpu import SimulationResult, simulate_kernel
from repro.tuning.space import ConfigSpace, Configuration

Arrays = Dict[str, np.ndarray]
Scalars = Dict[str, float]


class ConfigurationError(ValueError):
    """A configuration outside the application's space was requested."""


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
        self._fingerprint_cache: Dict[Configuration, str] = {}
        self._time_cache: Dict[Configuration, float] = {}
        self._sim_cache = SimulationCache()

    # ------------------------------------------------------------------
    # Space and kernel generation.

    @abc.abstractmethod
    def space(self) -> ConfigSpace:
        """The optimization space of Table 4."""

    @abc.abstractmethod
    def build_kernel(self, config: Configuration) -> Kernel:
        """Generate the kernel for one configuration."""

    def kernel(self, config: Configuration) -> Kernel:
        """Cached kernel generation."""
        if config not in self._kernel_cache:
            self._kernel_cache[config] = self.build_kernel(config)
        return self._kernel_cache[config]

    #: optional ``dataclasses.replace`` overrides applied on top of
    #: :meth:`sim_config` everywhere this application consumes it
    #: (fingerprints, compiles, traces, replays).  Set before first
    #: use — e.g. ``{"wave_convergence_rtol": 0.05}`` switches a fresh
    #: app instance into convergence mode; benchmarks and the
    #: convergence test suite use this instead of subclassing.
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
        program, so the engine may ship them to the scheduler as one
        group replayed through :meth:`simulate_group` (one compiled
        trace, one pool task).  ``None`` (the default) means "no
        grouping known" — every configuration is dispatched alone.
        Applications whose spaces contain parameter axes that do not
        change the per-launch kernel body override this (MRI-FHD's
        invocation split).  Keys must be hashable and picklable.
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
        fingerprint = self._fingerprint_cache.get(config)
        if fingerprint is None:
            fingerprint = kernel_fingerprint(
                kernel, self.effective_sim_config(config)
            )
            self._fingerprint_cache[config] = fingerprint
        cached = self._sim_cache.lookup_compile(fingerprint)
        if cached is not None:
            return self._specialize_report(cached, kernel)
        report = evaluate_kernel(kernel)
        self._sim_cache.store_compile(fingerprint, report)
        return report

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
            result = simulate_kernel(
                self.kernel(config),
                self.effective_sim_config(config),
                resources=self._resources_for(config),
                cache=self._sim_cache,
            )
        self._time_cache.setdefault(config, self._total_seconds(config, result))
        return result

    def simulate_group(self, configs) -> list:
        """:meth:`simulate` over configurations that (per
        :meth:`trace_group_key`) share a trace program.

        Returns the same seconds, and increments the same cache
        counters, as calling :meth:`simulate` on each configuration in
        order — pinned by tests/sim/test_batch_replay.py — while
        every replay of one trace object shares a single compiled
        linearization through ``simulate_kernel``'s ``compiled_cache``.
        """
        pending = [c for c in configs if c not in self._time_cache]
        if pending:
            compiled_cache: dict = {}
            with span("app.simulate_group", cat="app", app=self.name,
                      group_size=len(pending)):
                results = [
                    simulate_kernel(
                        self.kernel(c), self.effective_sim_config(c),
                        resources=self._resources_for(c),
                        cache=self._sim_cache,
                        compiled_cache=compiled_cache,
                    )
                    for c in pending
                ]
            for config, result in zip(pending, results):
                self._time_cache.setdefault(
                    config, self._total_seconds(config, result)
                )
        return [self._time_cache[config] for config in configs]

    def search_engine(self, workers: Optional[int] = 1,
                      checkpoint_path: Optional[str] = None,
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
        result store under this app's ``sim_cache``.
        """
        from repro.tuning.engine import ExecutionEngine

        return ExecutionEngine.for_app(
            self, workers=workers, checkpoint_path=checkpoint_path,
            retry_policy=retry_policy, fault_spec=fault_spec, store=store,
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

    def __getstate__(self) -> dict:
        # Keep pickles (process-pool workers, checkpoint tooling) small
        # and robust: caches are recomputed on the other side.  The
        # attached result store (if any) survives — it holds no open
        # handles and is exactly what a remote copy should read from.
        state = dict(self.__dict__)
        state["_kernel_cache"] = {}
        state["_fingerprint_cache"] = {}
        state["_time_cache"] = {}
        state["_sim_cache"] = SimulationCache(store=self._sim_cache.store)
        return state
