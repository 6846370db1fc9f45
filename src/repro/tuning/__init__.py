"""Search-space pruning: Pareto subsets and search strategies (Section 5)."""

from repro.tuning.cluster import cluster_by_metrics, cluster_representatives
from repro.tuning.engine import (
    EngineStats,
    ExecutionEngine,
    config_key,
    resolve_workers,
)
from repro.tuning.pareto import dominates, pareto_front, pareto_indices
from repro.tuning.scheduler import (
    RetryPolicy,
    SchedulerError,
    SweepScheduler,
)
from repro.tuning.search import (
    EvaluatedConfig,
    SearchResult,
    evaluate_all,
    full_exploration,
    pareto_cluster_search,
    pareto_search,
    random_search,
)
from repro.tuning.space import ConfigSpace, Configuration, cartesian
from repro.tuning.strategies import (
    StrategyError,
    StrategySpec,
    adaptive_strategy_names,
    build_strategy,
    selection_strategy_names,
    strategy_names,
)

__all__ = [
    "ConfigSpace",
    "Configuration",
    "EngineStats",
    "EvaluatedConfig",
    "ExecutionEngine",
    "RetryPolicy",
    "SchedulerError",
    "SearchResult",
    "StrategyError",
    "StrategySpec",
    "SweepScheduler",
    "adaptive_strategy_names",
    "build_strategy",
    "cartesian",
    "cluster_by_metrics",
    "cluster_representatives",
    "config_key",
    "dominates",
    "evaluate_all",
    "resolve_workers",
    "full_exploration",
    "pareto_cluster_search",
    "pareto_front",
    "pareto_indices",
    "pareto_search",
    "random_search",
    "selection_strategy_names",
    "strategy_names",
]
