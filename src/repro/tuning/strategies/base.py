"""The adaptive-strategy interface and its budgeted-run machinery.

Contract (see ``docs/search_strategies.md``):

* every strategy runs through an
  :class:`~repro.tuning.engine.ExecutionEngine`, so static metrics,
  simulator caches, scheduler fault tolerance, and the persistent
  store come for free and no configuration is ever measured twice;
* determinism under an explicit ``seed``: all randomness flows from
  one ``random.Random(seed)``, no draw depends on timing or
  measurement latency, so a seeded run reproduces exactly — serial or
  pooled (the engine guarantees pooled timing is bit-identical);
* a hard evaluation ``budget``: distinct measured configurations,
  never exceeded, defaulting to 25% of the valid space;
* paper-style composition via ``restrict``: ``"full"`` searches every
  valid configuration, ``"pareto"`` only the Pareto-pruned subset;
* the per-evaluation trajectory — ``(evaluations, best_seconds)``
  after every measurement — is recorded on the
  :class:`~repro.tuning.search.SearchResult`.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.tuning.engine import (
    Evaluate,
    EvaluatedConfig,
    ExecutionEngine,
    Simulate,
)
from repro.tuning.search import (
    SearchResult,
    assemble_result,
    resolve_engine,
    select_timed,
)
from repro.tuning.space import Configuration

__all__ = [
    "DEFAULT_BUDGET_FRACTION",
    "BudgetedRun",
    "PoolGeometry",
    "SearchStrategy",
]

#: default evaluation budget as a fraction of the valid space — the
#: acceptance bar the zoo benchmark gates on (<= 25% of full-space
#: evaluations to get within 5% of the optimum)
DEFAULT_BUDGET_FRACTION = 0.25

Progress = Callable[[int, int], None]


class PoolGeometry:
    """Axis structure of a candidate pool, for neighborhood moves.

    ``axes`` maps each parameter name to its distinct values in pool
    order (deterministic: pools preserve evaluation order, which
    preserves space construction order); ``members`` is the pool as a
    set for O(1) membership repair.
    """

    def __init__(self, configs: Sequence[Configuration]) -> None:
        if not configs:
            raise ValueError("pool geometry needs at least one configuration")
        self.names: List[str] = list(configs[0])
        self.axes: Dict[str, List] = {
            name: list(dict.fromkeys(config[name] for config in configs))
            for name in self.names
        }
        self.members = set(configs)

    def value_index(self, config: Configuration) -> Tuple[int, ...]:
        """The configuration as per-axis value indices."""
        return tuple(
            self.axes[name].index(config[name]) for name in self.names
        )


class BudgetedRun:
    """Bookkeeping for one budgeted search: dedupe, budget, trajectory.

    Strategies call :meth:`measure` with candidate batches; the run
    silently drops already-measured candidates (a revisit costs no
    budget — the engine memo would serve it anyway), clips the batch to
    the remaining budget, and appends one ``(evaluations,
    best_so_far_seconds)`` trajectory point per *new* measurement.
    Batches go through ``engine.time_entries`` so a pooled engine
    fans each batch out across its workers.
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        pool: Sequence[EvaluatedConfig],
        budget: int,
        progress: Optional[Progress] = None,
    ) -> None:
        self.engine = engine
        self.pool: List[EvaluatedConfig] = list(pool)
        self.pool_configs: List[Configuration] = [e.config for e in self.pool]
        self._entry_for: Dict[Configuration, EvaluatedConfig] = {
            entry.config: entry for entry in self.pool
        }
        self.budget = budget
        self.timed: List[EvaluatedConfig] = []
        self.trajectory: List[Tuple[int, float]] = []
        self._measured: Dict[Configuration, float] = {}
        self._best: Optional[EvaluatedConfig] = None
        self._progress = progress
        if progress is not None:
            progress(0, budget)

    # ------------------------------------------------------------------
    # State queries.

    @property
    def remaining(self) -> int:
        return self.budget - len(self.timed)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    @property
    def best(self) -> Optional[EvaluatedConfig]:
        return self._best

    def seconds(self, config: Configuration) -> Optional[float]:
        """Measured seconds, or ``None`` if not yet measured."""
        return self._measured.get(config)

    def is_measured(self, config: Configuration) -> bool:
        return config in self._measured

    def unmeasured(self) -> List[Configuration]:
        """Pool members without a measurement, in pool order."""
        return [
            config for config in self.pool_configs
            if config not in self._measured
        ]

    # ------------------------------------------------------------------
    # Measurement.

    def measure(self, configs: Sequence[Configuration]) -> None:
        """Measure new in-pool candidates, within the remaining budget.

        Duplicates (within the batch or against earlier measurements)
        and out-of-pool candidates are dropped; the rest is clipped to
        the remaining budget and measured in one engine batch.
        """
        batch: List[EvaluatedConfig] = []
        for config in configs:
            if len(batch) >= self.remaining:
                break
            if config in self._measured:
                continue
            entry = self._entry_for.get(config)
            if entry is None or any(e.config == config for e in batch):
                continue
            batch.append(entry)
        if not batch:
            return
        self.engine.time_entries(batch)
        for entry in batch:
            self._measured[entry.config] = entry.seconds
            self.timed.append(entry)
            if self._best is None or entry.seconds < self._best.seconds:
                self._best = entry
            self.trajectory.append((len(self.timed), self._best.seconds))
        if self._progress is not None:
            self._progress(len(self.timed), self.budget)

    def force_explore(self, rng: random.Random) -> Optional[Configuration]:
        """Measure one random unmeasured pool member — the stall escape
        every move-based strategy uses when its proposals keep landing
        on already-measured configurations."""
        fresh = self.unmeasured()
        if not fresh or self.exhausted:
            return None
        choice = fresh[rng.randrange(len(fresh))]
        self.measure([choice])
        return choice


class SearchStrategy(abc.ABC):
    """One budgeted search algorithm; subclasses implement :meth:`search`.

    The template method :meth:`run` owns everything the algorithms
    share — static evaluation, pool restriction, budget resolution,
    result assembly — so a subclass only decides *which configuration
    to measure next*.
    """

    #: the registry name, recorded on the SearchResult
    name: str = ""

    def run(
        self,
        configs: Sequence[Configuration],
        engine: Optional[ExecutionEngine] = None,
        *,
        evaluate: Optional[Evaluate] = None,
        simulate: Optional[Simulate] = None,
        seed: int = 0,
        budget: Optional[int] = None,
        restrict: str = "full",
        progress: Optional[Progress] = None,
        **params,
    ) -> SearchResult:
        """Execute the strategy over ``configs``.

        ``budget`` counts distinct measured configurations and defaults
        to 25% of the valid space (at least 1), clamped to the pool
        size.  ``restrict="pareto"`` searches only the Pareto-pruned
        subset — exactly what ``select_timed("pareto", ...)`` would
        time.  ``progress(done, total)`` fires at batch boundaries; a
        caller that needs cancellation raises from it (the service
        daemon raises :class:`~repro.service.registry.SweepCancelled`).
        """
        engine = resolve_engine(engine, evaluate, simulate)
        evaluated = engine.evaluate_all(configs)
        pool = _restrict_pool(evaluated, restrict)
        valid_count = sum(1 for e in evaluated if e.is_valid)
        resolved = _resolve_budget(budget, valid_count, len(pool))
        run = BudgetedRun(engine, pool, resolved, progress)
        rng = random.Random(seed)
        if pool and resolved > 0:
            self.search(run, rng, **params)
        return assemble_result(
            self.name, evaluated, run.timed,
            trajectory=list(run.trajectory),
            budget=resolved,
            seed=seed,
            restrict=restrict,
            pool_size=len(pool),
        )

    @abc.abstractmethod
    def search(self, run: BudgetedRun, rng: random.Random, **params) -> None:
        """Spend ``run``'s budget; called once, with a seeded RNG."""


def _restrict_pool(
    evaluated: List[EvaluatedConfig], restrict: str
) -> List[EvaluatedConfig]:
    if restrict == "full":
        return [e for e in evaluated if e.is_valid]
    if restrict == "pareto":
        return select_timed("pareto", evaluated)
    raise ValueError(
        f"unknown restrict mode {restrict!r}; expected 'full' or 'pareto'"
    )


def _resolve_budget(
    budget: Optional[int], valid_count: int, pool_size: int
) -> int:
    if budget is None:
        budget = max(1, round(DEFAULT_BUDGET_FRACTION * valid_count))
    elif budget < 1:
        raise ValueError("budget must be a positive integer")
    return min(budget, pool_size)
