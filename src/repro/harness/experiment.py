"""Experiment driver: runs the paper's search protocol on one application.

For each application the paper (i) explores the full configuration
space, (ii) prunes it to the Pareto-optimal subset of the metric plot,
and (iii) compares.  ``run_experiment`` performs both searches and
collects everything the tables and figures need.

All strategies share one :class:`~repro.tuning.engine.ExecutionEngine`,
so a multi-strategy experiment performs exactly one static-metric pass
over the space and never simulates the same configuration twice — the
Pareto and random searches are served from the exhaustive pass's
cache.  ``workers`` fans the exhaustive measurement out across a
process pool; ``store`` lets an interrupted sweep resume.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Dict, List, Optional, Sequence

from repro.apps.base import Application
from repro.arch.occupancy import LaunchError
from repro.obs.trace import span
from repro.tuning.engine import EngineStats, ExecutionEngine
from repro.tuning.search import (
    SearchResult,
    full_exploration,
    pareto_search,
    random_search,
)
from repro.tuning.strategies import build_strategy


@dataclasses.dataclass
class AppExperiment:
    """Everything measured for one application."""

    app: Application
    exhaustive: SearchResult
    pareto: SearchResult
    random: Optional[SearchResult] = None
    wall_seconds: float = 0.0
    #: engine telemetry: evaluation counts, cache hits, stage wall time
    engine_stats: Optional[EngineStats] = None
    #: budgeted strategy-zoo runs (one per strategy × restrict mode),
    #: all served from the exhaustive pass's warm measurement cache
    zoo: List[SearchResult] = dataclasses.field(default_factory=list)

    @property
    def name(self) -> str:
        return self.app.name

    @functools.cached_property
    def _explored(self) -> Dict:
        return {entry.config: entry for entry in self.exhaustive.evaluated}

    def evaluate(self, config):
        """The full exploration's static metrics for ``config``; raises
        :class:`LaunchError` for an invalid one, like
        :meth:`Application.evaluate`, but recomputes nothing — the
        figures read a store-resumed experiment without building a
        kernel."""
        entry = self._explored[config]
        if not entry.is_valid:
            raise LaunchError(entry.invalid_reason)
        return entry.metrics

    def simulate(self, config) -> float:
        """The full exploration's measured seconds for ``config``."""
        return self._explored[config].seconds

    @property
    def optimum_on_curve(self) -> bool:
        """The paper's headline claim for this application."""
        return any(
            entry.config == self.exhaustive.best.config
            for entry in self.pareto.timed
        )

    @property
    def space_reduction_percent(self) -> float:
        """NaN when the space had no valid configuration (see
        ``SearchResult.space_reduction``); render with
        :func:`format_percent`."""
        reduction = self.pareto.space_reduction
        if math.isnan(reduction):
            return float("nan")
        return reduction * 100.0

    @property
    def pruned_best_gap(self) -> float:
        """Slowdown of the pruned search's pick vs the true optimum."""
        return self.pareto.best.seconds / self.exhaustive.best.seconds - 1.0

    @property
    def gpu_best_seconds(self) -> float:
        return self.exhaustive.best.seconds

    @property
    def speedup_over_cpu(self) -> float:
        """Table 3: modeled single-thread CPU time over best GPU time."""
        return self.app.cpu_time_model_seconds() / self.gpu_best_seconds

    @property
    def worst_over_best(self) -> float:
        worst = max(e.seconds for e in self.exhaustive.timed)
        return worst / self.exhaustive.best.seconds

    @property
    def hand_optimized_over_best(self) -> float:
        """Section 1's motivation: how far a sensible hand-written
        starting configuration sits from the space's optimum.

        NaN when the default configuration cannot launch at all (an
        application whose hand-written starting point is invalid on
        this device) — rendered as "n/a" in tables rather than
        crashing the whole experiment.
        """
        hand = self.app.default_configuration()
        entry = self._explored.get(hand)
        if entry is not None:
            if not entry.is_valid:
                return float("nan")
            return entry.seconds / self.exhaustive.best.seconds
        try:
            return self.app.simulate(hand) / self.exhaustive.best.seconds
        except LaunchError:
            return float("nan")


def format_percent(value: float, width: int = 5, precision: int = 1) -> str:
    """Render a percentage, degrading NaN to "n/a" instead of "nan%"."""
    if math.isnan(value):
        return "n/a".rjust(width + 1)
    return f"{value:{width}.{precision}f}%"


def run_experiment(
    app: Application,
    include_random: bool = False,
    random_seed: int = 0,
    workers: Optional[int] = None,
    engine: Optional[ExecutionEngine] = None,
    retry_policy=None,
    fault_spec: Optional[str] = None,
    store=None,
    zoo_strategies: Optional[Sequence[str]] = None,
    zoo_budget_fraction: float = 0.25,
) -> AppExperiment:
    """Run exhaustive + Pareto (and optionally random) searches.

    ``workers`` widens the sweep scheduler's worker pool; the default
    (``None``) defers to the ``REPRO_WORKERS`` environment variable,
    so a whole suite can be switched to pooled execution without
    touching call sites (results are bit-identical either way).
    ``retry_policy`` and ``fault_spec`` configure the scheduler's
    fault-tolerance knobs and deterministic fault injection (``None``
    defers to ``REPRO_TASK_TIMEOUT``/``REPRO_TASK_RETRIES`` and
    ``REPRO_FAULTS``).  ``store`` — a directory path or
    :class:`~repro.store.ResultStore`, defaulting to ``REPRO_STORE``
    — layers the persistent result store under the app's simulator
    cache, so artifacts survive across harness invocations, and keeps
    every finished configuration in its ``config`` tier, so an
    interrupted sweep rerun against the same store resumes where it
    stopped.  Pass an ``engine`` to reuse caches across calls —
    otherwise one is created (and its pool torn down) per experiment.

    ``zoo_strategies`` names adaptive strategies from the registry to
    run after the paper protocol, each in both compositions (the full
    valid space and the Pareto-restricted pool) with a budget of
    ``zoo_budget_fraction`` of the valid space and ``random_seed`` as
    the seed.  Because the exhaustive pass already measured every
    valid configuration, zoo runs are pure cache replays — they cost
    no additional simulation, only bookkeeping.
    """
    configs = app.space().configurations()
    started = time.perf_counter()
    owns_engine = engine is None
    if engine is None:
        engine = ExecutionEngine.for_app(
            app, workers=workers, retry_policy=retry_policy,
            fault_spec=fault_spec, store=store,
        )
    try:
        with span("harness.experiment", cat="harness", app=app.name,
                  configs=len(configs)):
            exhaustive = full_exploration(configs, engine=engine)
            pareto = pareto_search(configs, engine=engine)
            random_result = None
            if include_random:
                random_result = random_search(
                    configs,
                    sample_size=pareto.timed_count,
                    seed=random_seed,
                    engine=engine,
                )
            zoo: List[SearchResult] = []
            if zoo_strategies:
                budget = max(
                    1,
                    round(zoo_budget_fraction * exhaustive.valid_count),
                )
                for name in zoo_strategies:
                    strategy = build_strategy(name)
                    for restrict in ("full", "pareto"):
                        zoo.append(strategy.run(
                            configs, engine,
                            seed=random_seed,
                            budget=budget,
                            restrict=restrict,
                        ))
    finally:
        if owns_engine:
            engine.close()
    return AppExperiment(
        app=app,
        exhaustive=exhaustive,
        pareto=pareto,
        random=random_result,
        wall_seconds=time.perf_counter() - started,
        engine_stats=engine.stats,
        zoo=zoo,
    )
