"""The search-strategy zoo.

This package hosts the budgeted ("adaptive") search algorithms —
simulated annealing, genetic, particle swarm, basin hopping, and a
surrogate-model searcher — behind the :class:`SearchStrategy`
interface, plus the registry that is the single source of truth for
strategy names across the harness CLI and the service daemon.

Importing the package pulls in only the registry; the strategy
implementations (and :mod:`~repro.tuning.strategies.base`, which
imports :mod:`repro.tuning.search`) load lazily on first attribute
access, so :mod:`repro.tuning.search` can derive ``STRATEGIES`` from
the registry without an import cycle.
"""

from repro.tuning.strategies.registry import (
    ADAPTIVE_FIELDS,
    RESTRICT_MODES,
    SPECS,
    StrategyError,
    StrategySpec,
    adaptive_strategy_names,
    build_strategy,
    get_spec,
    is_integer,
    request_fields,
    request_kwargs,
    selection_strategy_names,
    strategy_names,
)

__all__ = [
    "ADAPTIVE_FIELDS",
    "BudgetedRun",
    "DEFAULT_BUDGET_FRACTION",
    "RESTRICT_MODES",
    "SPECS",
    "SearchStrategy",
    "StrategyError",
    "StrategySpec",
    "adaptive_strategy_names",
    "build_strategy",
    "get_spec",
    "is_integer",
    "request_fields",
    "request_kwargs",
    "selection_strategy_names",
    "strategy_names",
]

_LAZY_BASE = ("SearchStrategy", "BudgetedRun", "DEFAULT_BUDGET_FRACTION")


def __getattr__(name):
    if name in _LAZY_BASE:
        from repro.tuning.strategies import base

        return getattr(base, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
