"""Search strategies over a configuration space.

* ``full_exploration`` — time every valid configuration (what the
  paper did first, and what Table 4's "Evaluation Time" column costs);
* ``pareto_search`` — evaluate the static metrics everywhere, then
  time only the Pareto-optimal subset (the paper's contribution);
* ``random_search`` — time a random sample (the comparison the paper
  names as future work).

The strategies are decoupled from applications through two callables:

    evaluate(config) -> MetricReport      (static; cheap; may raise LaunchError)
    simulate(config) -> float seconds     (the expensive measurement)

Every strategy runs on an :class:`~repro.tuning.engine.ExecutionEngine`
which memoizes both callables, so running several strategies over the
same space performs one static pass and never measures a configuration
twice.  Pass ``engine=`` to share one engine across strategies (what
``run_experiment`` does); without it each call builds a private
single-worker engine, preserving the original free-function behavior.

The pipeline is written once: :func:`run_selection` evaluates, selects
(:func:`select_timed`), measures and hands the timed subset to
:func:`assemble_result`, the only place a :class:`SearchResult` is
built and its seconds summed.  Each strategy function is one
``run_selection`` call; the service's ``run_sweep`` is too, and its
fast lane and the adaptive zoo's ``SearchStrategy.run`` end in the
same assembler.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.tuning.engine import (
    Evaluate,
    EvaluatedConfig,
    ExecutionEngine,
    Simulate,
)
from repro.tuning.pareto import pareto_indices
from repro.tuning.space import Configuration
from repro.tuning.strategies.registry import selection_strategy_names

__all__ = [
    "EvaluatedConfig",
    "STRATEGIES",
    "SearchResult",
    "assemble_result",
    "evaluate_all",
    "full_exploration",
    "pareto_cluster_search",
    "pareto_search",
    "random_search",
    "requested_sample_size",
    "resolve_engine",
    "run_selection",
    "select_timed",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class SearchResult:
    """Outcome of one search strategy."""

    strategy: str
    evaluated: List[EvaluatedConfig]        # every configuration examined
    timed: List[EvaluatedConfig]            # the subset actually measured
    best: EvaluatedConfig                   # fastest measured configuration
    measured_seconds: float                 # sum of measured kernel times
    #: for sampling strategies: the caller-requested sample size, which
    #: may exceed what the valid space could provide (see timed_count
    #: for what was actually measured)
    requested_sample_size: Optional[int] = None
    #: budgeted (zoo) strategies record the best-seconds-so-far after
    #: every measurement: a list of ``(evaluations, best_seconds)``
    #: pairs — the budget-versus-quality curve of the run.  ``None``
    #: for the classic selection strategies, whose timed subset is a
    #: pure function of the static metrics.
    trajectory: Optional[List[Tuple[int, float]]] = None
    #: the evaluation budget the run was allowed (distinct measured
    #: configurations), after clamping to the candidate pool
    budget: Optional[int] = None
    #: the seed that makes a stochastic run reproducible
    seed: Optional[int] = None
    #: paper-style composition: "full" searched the whole valid space,
    #: "pareto" searched only the Pareto-pruned subset
    restrict: Optional[str] = None
    #: size of the candidate pool the strategy drew from
    pool_size: Optional[int] = None

    def evaluations_to_within(
        self, fraction: float, optimum_seconds: Optional[float] = None
    ) -> Optional[int]:
        """Evaluations until best-so-far was within ``fraction`` of the
        optimum (``None``: never, or no trajectory was recorded).

        ``optimum_seconds`` defaults to this run's own best — pass the
        full-exploration optimum for evaluations-to-optimum curves.
        """
        if not self.trajectory:
            return None
        target = optimum_seconds if optimum_seconds is not None else self.best.seconds
        target *= 1.0 + fraction
        for count, best in self.trajectory:
            if best <= target:
                return count
        return None

    @property
    def space_size(self) -> int:
        return len(self.evaluated)

    @property
    def valid_count(self) -> int:
        return sum(1 for e in self.evaluated if e.is_valid)

    @property
    def timed_count(self) -> int:
        return len(self.timed)

    @property
    def sample_shortfall(self) -> int:
        """How many requested samples the valid space could not supply."""
        if self.requested_sample_size is None:
            return 0
        return max(0, self.requested_sample_size - self.timed_count)

    @property
    def space_reduction(self) -> float:
        """Fraction of the valid space the strategy avoided timing.

        NaN when the space has no valid configuration at all — there
        was nothing to prune, which is not the same as pruning nothing.
        """
        valid = self.valid_count
        if valid == 0:
            return float("nan")
        return 1.0 - self.timed_count / valid


def resolve_engine(
    engine: Optional[ExecutionEngine],
    evaluate: Optional[Evaluate],
    simulate: Optional[Simulate],
) -> ExecutionEngine:
    """``engine``, or a private single-worker engine over the two
    callables (the original free-function behavior)."""
    if engine is not None:
        return engine
    if evaluate is None or simulate is None:
        raise TypeError(
            "search strategies need either an engine= or both "
            "evaluate and simulate callables"
        )
    return ExecutionEngine(evaluate, simulate)


def evaluate_all(
    configs: Sequence[Configuration],
    evaluate: Optional[Evaluate] = None,
    engine: Optional[ExecutionEngine] = None,
) -> List[EvaluatedConfig]:
    """Static metrics for every configuration; invalids recorded, kept."""
    if engine is None:
        engine = ExecutionEngine(evaluate, lambda config: 0.0)
    return engine.evaluate_all(configs)


#: Strategy names accepted by :func:`select_timed` — the same strings
#: each strategy records on its :class:`SearchResult`.  Derived from
#: the strategy registry, the single source of truth shared with the
#: harness CLI and the service daemon (adaptive zoo strategies live
#: there too; they dispatch through
#: :meth:`repro.tuning.strategies.SearchStrategy.run`, not here).
STRATEGIES = selection_strategy_names()


def select_timed(
    strategy: str,
    evaluated: List[EvaluatedConfig],
    *,
    screen_bandwidth_bound: bool = False,
    relative_tolerance: float = 1e-9,
    sample_size: int = 0,
    seed: int = 0,
) -> List[EvaluatedConfig]:
    """The subset of ``evaluated`` the named strategy would time, in order.

    This is the single selection routine behind every search strategy;
    callers that need to drive timing themselves (the service daemon
    chunks timing so it can checkpoint and honor cancellation) use it
    directly and are guaranteed to pick exactly what the one-shot
    strategy functions pick.
    """
    if strategy == "exhaustive":
        return [e for e in evaluated if e.is_valid]
    if strategy == "pareto":
        candidates = [e for e in evaluated if e.is_valid]
        pool = candidates
        if screen_bandwidth_bound:
            unscreened = [
                e for e in candidates
                if not e.metrics.bandwidth.is_bandwidth_bound()
            ]
            if unscreened:
                pool = unscreened
        points = [(e.metrics.efficiency, e.metrics.utilization) for e in pool]
        return [pool[i] for i in pareto_indices(points)]
    if strategy == "pareto+cluster":
        from repro.tuning.cluster import cluster_by_metrics

        candidates = [e for e in evaluated if e.is_valid]
        points = [
            (e.metrics.efficiency, e.metrics.utilization) for e in candidates
        ]
        selected = [candidates[i] for i in pareto_indices(points)]
        clusters = cluster_by_metrics(selected, relative_tolerance)
        rng = random.Random(seed)
        return [rng.choice(cluster) for cluster in clusters]
    if strategy == "random":
        valid = [e for e in evaluated if e.is_valid]
        actual_size = min(sample_size, len(valid))
        if actual_size < sample_size:
            logger.warning(
                "random_search: sample_size %d exceeds the valid space (%d "
                "configurations); timing all %d",
                sample_size, len(valid), actual_size,
            )
        rng = random.Random(seed)
        return rng.sample(valid, actual_size)
    raise ValueError(
        f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
    )




def requested_sample_size(
    strategy: str, select_kwargs: Dict[str, Any]
) -> Optional[int]:
    """The sample size a ``random`` selection asked for; ``None`` for
    every other strategy."""
    if strategy == "random":
        return select_kwargs.get("sample_size", 0)
    return None


def assemble_result(
    strategy: str,
    evaluated: List[EvaluatedConfig],
    timed: List[EvaluatedConfig],
    select_kwargs: Optional[Dict[str, Any]] = None,
    **fields: Any,
) -> SearchResult:
    """The one result assembler behind every search.

    ``measured_seconds`` is summed in one sequential loop over
    ``timed`` in selection order, so the total is bit-identical however
    the entries were measured: one engine batch, cancellable chunks, or
    memo reads on the service's fast lane.  ``select_kwargs`` supplies
    ``random``'s requested sample size; adaptive runs pass their zoo
    fields (``trajectory``, ``budget``, ``seed``, ...) as ``fields``.
    ``best`` is the fastest timed entry; an empty ``timed`` raises.
    """
    if not timed:
        raise ValueError(f"{strategy}: no configuration could be timed")
    total = 0.0
    for entry in timed:
        total += entry.seconds
    return SearchResult(
        strategy=strategy,
        evaluated=evaluated,
        timed=timed,
        best=min(timed, key=lambda e: e.seconds),
        measured_seconds=total,
        requested_sample_size=requested_sample_size(
            strategy, select_kwargs or {}
        ),
        **fields,
    )


def run_selection(
    strategy: str,
    configs: Sequence[Configuration],
    engine: ExecutionEngine,
    *,
    measure: Optional[Callable[[List[EvaluatedConfig]], None]] = None,
    **select_kwargs: Any,
) -> SearchResult:
    """The selection sweep: evaluate every configuration, select the
    subset to time, measure it, assemble the result.

    ``measure`` fills ``entry.seconds`` on the selected entries and
    defaults to one ``engine.time_entries`` batch; the service passes
    its chunked, cancellable loop instead.  Every strategy function
    below, ``run_sweep`` and ``run-local`` are this one call.
    """
    evaluated = engine.evaluate_all(configs)
    timed = select_timed(strategy, evaluated, **select_kwargs)
    (measure or engine.time_entries)(timed)
    return assemble_result(strategy, evaluated, timed, select_kwargs)


def full_exploration(
    configs: Sequence[Configuration],
    evaluate: Optional[Evaluate] = None,
    simulate: Optional[Simulate] = None,
    engine: Optional[ExecutionEngine] = None,
) -> SearchResult:
    """Measure every valid configuration."""
    return run_selection(
        "exhaustive", configs, resolve_engine(engine, evaluate, simulate),
    )


def pareto_search(
    configs: Sequence[Configuration],
    evaluate: Optional[Evaluate] = None,
    simulate: Optional[Simulate] = None,
    screen_bandwidth_bound: bool = False,
    engine: Optional[ExecutionEngine] = None,
) -> SearchResult:
    """Measure only the Pareto-optimal subset of the metric plot.

    ``screen_bandwidth_bound`` applies the Section 5.3 advice: remove
    configurations the bandwidth estimate flags before drawing the
    curve ("One should screen away such points prior to defining the
    curve").
    """
    return run_selection(
        "pareto", configs, resolve_engine(engine, evaluate, simulate),
        screen_bandwidth_bound=screen_bandwidth_bound,
    )


def pareto_cluster_search(
    configs: Sequence[Configuration],
    evaluate: Optional[Evaluate] = None,
    simulate: Optional[Simulate] = None,
    relative_tolerance: float = 1e-9,
    seed: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> SearchResult:
    """Pareto pruning plus cluster sampling (Section 5.2's refinement).

    "When several configurations have identical or nearly identical
    metrics, it may be sufficient to randomly select a single
    configuration from that cluster, rather than evaluating all the
    configurations."  The Pareto subset is computed as usual, then only
    one randomly-chosen representative per metric cluster is timed.
    """
    return run_selection(
        "pareto+cluster", configs, resolve_engine(engine, evaluate, simulate),
        relative_tolerance=relative_tolerance, seed=seed,
    )


def random_search(
    configs: Sequence[Configuration],
    evaluate: Optional[Evaluate] = None,
    simulate: Optional[Simulate] = None,
    sample_size: int = 0,
    seed: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> SearchResult:
    """Measure a uniform random sample of the valid space.

    When ``sample_size`` exceeds the valid space the sample is clamped
    — loudly: the shortfall is logged and the originally requested size
    is recorded on the result (``requested_sample_size``), so
    Table 4-style comparisons against another strategy's budget are not
    silently skewed.
    """
    return run_selection(
        "random", configs, resolve_engine(engine, evaluate, simulate),
        sample_size=sample_size, seed=seed,
    )
