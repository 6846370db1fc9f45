"""The strategy registry: one table, every consumer.

Both the harness ``--strategies`` choices and the service daemon's
``parse_sweep_request`` validation derive from :data:`SPECS` — add a
:class:`StrategySpec` here and the new strategy appears in the CLI, is
accepted (and validated) by the daemon, and is picked up by the
registry drift tests, with no other list to update.

Two kinds of strategy live side by side:

* ``selection`` — the classic paper strategies whose timed subset is a
  pure function of the static metrics; they dispatch through
  :func:`repro.tuning.search.select_timed`.
* ``adaptive`` — the zoo: budgeted algorithms that decide the next
  measurement from the previous ones.  Each is implemented by a
  :class:`~repro.tuning.strategies.base.SearchStrategy` subclass named
  by ``loader`` and imported lazily, so importing this module (which
  :mod:`repro.tuning.search` does to build ``STRATEGIES``) never pulls
  in the strategy implementations and cannot create an import cycle.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ADAPTIVE_FIELDS",
    "RESTRICT_MODES",
    "SPECS",
    "StrategyError",
    "StrategySpec",
    "adaptive_strategy_names",
    "build_strategy",
    "get_spec",
    "is_integer",
    "request_kwargs",
    "selection_strategy_names",
    "strategy_names",
]


class StrategyError(ValueError):
    """A strategy name or parameterization that cannot be honored."""


#: the composition axis every adaptive strategy supports: search the
#: whole valid space, or only the Pareto-pruned subset (the paper's
#: pruning applied as a pre-filter to a modern search algorithm)
RESTRICT_MODES = ("full", "pareto")

#: request fields shared by every adaptive strategy
ADAPTIVE_FIELDS = ("seed", "budget", "restrict")


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """One registered search strategy."""

    name: str
    #: "selection" (timed subset is a pure function of the metrics) or
    #: "adaptive" (budgeted; decides measurements from prior results)
    kind: str
    summary: str
    #: request payload fields this strategy accepts beyond the base set
    fields: Tuple[str, ...] = ()
    #: "module:Class" for adaptive strategies, imported lazily
    loader: Optional[str] = None
    #: extra positive-integer tuning knobs: (field, minimum) pairs
    int_knobs: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_adaptive(self) -> bool:
        return self.kind == "adaptive"


def _adaptive(
    name: str,
    summary: str,
    loader: str,
    int_knobs: Tuple[Tuple[str, int], ...] = (),
) -> StrategySpec:
    return StrategySpec(
        name=name,
        kind="adaptive",
        summary=summary,
        fields=ADAPTIVE_FIELDS + tuple(knob for knob, _ in int_knobs),
        loader=loader,
        int_knobs=int_knobs,
    )


#: the registry itself, in presentation order: paper strategies first,
#: then the zoo
SPECS: Tuple[StrategySpec, ...] = (
    StrategySpec(
        name="exhaustive",
        kind="selection",
        summary="time every valid configuration",
    ),
    StrategySpec(
        name="pareto",
        kind="selection",
        summary="time only the Pareto-optimal subset of the metric plot",
        fields=("screen_bandwidth_bound",),
    ),
    StrategySpec(
        name="pareto+cluster",
        kind="selection",
        summary="Pareto pruning plus one representative per metric cluster",
        fields=("relative_tolerance", "seed"),
    ),
    StrategySpec(
        name="random",
        kind="selection",
        summary="time a uniform random sample of the valid space",
        fields=("sample_size", "seed"),
    ),
    _adaptive(
        "anneal",
        "simulated annealing over one-parameter neighbor moves",
        "repro.tuning.strategies.anneal:SimulatedAnnealing",
    ),
    _adaptive(
        "genetic",
        "genetic search: tournaments, uniform crossover, mutation",
        "repro.tuning.strategies.genetic:GeneticSearch",
        int_knobs=(("population", 2),),
    ),
    _adaptive(
        "swarm",
        "particle swarm over per-parameter value indices",
        "repro.tuning.strategies.swarm:ParticleSwarm",
        int_knobs=(("particles", 2),),
    ),
    _adaptive(
        "basin",
        "basin hopping: greedy descent plus Metropolis-accepted jumps",
        "repro.tuning.strategies.basin:BasinHopping",
    ),
    _adaptive(
        "surrogate",
        "model-based search: additive surrogate fit, argmin acquisition",
        "repro.tuning.strategies.surrogate:SurrogateSearch",
        int_knobs=(("init_sample", 1),),
    ),
)

_BY_NAME: Dict[str, StrategySpec] = {spec.name: spec for spec in SPECS}


def strategy_names() -> Tuple[str, ...]:
    """Every registered strategy name, in registry order."""
    return tuple(spec.name for spec in SPECS)


def selection_strategy_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in SPECS if spec.kind == "selection")


def adaptive_strategy_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in SPECS if spec.kind == "adaptive")


def get_spec(name: str) -> StrategySpec:
    spec = _BY_NAME.get(name)
    if spec is None:
        raise StrategyError(
            f"unknown strategy {name!r}; expected one of "
            f"{list(strategy_names())}"
        )
    return spec


def build_strategy(name: str):
    """Instantiate the named adaptive strategy (lazily imported)."""
    spec = get_spec(name)
    if not spec.is_adaptive:
        raise StrategyError(
            f"{name!r} is a selection strategy, not an adaptive one; "
            "drive it through select_timed or the strategy functions"
        )
    module_name, _, class_name = spec.loader.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name)()


def request_kwargs(spec: StrategySpec, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and extract the strategy's keyword arguments from a
    request payload.

    This is the single validation routine behind the daemon's
    ``parse_sweep_request`` and the ``run-local`` CLI — raises
    :class:`StrategyError` naming exactly what was wrong.  The returned
    kwargs feed :func:`repro.tuning.search.select_timed` (selection) or
    :meth:`SearchStrategy.run` (adaptive) unchanged on both paths, so
    daemon and CLI cannot drift.
    """
    if spec.kind == "selection":
        return _selection_kwargs(spec.name, payload)
    return _adaptive_kwargs(spec, payload)


def is_integer(value: Any) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (``true`` is not 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _seed(payload: Dict[str, Any]) -> int:
    seed = payload.get("seed", 0)
    if not is_integer(seed):
        raise StrategyError(f"seed must be an integer, not {seed!r}")
    return seed


def _selection_kwargs(name: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if name == "pareto":
        screen = payload.get("screen_bandwidth_bound", False)
        if not isinstance(screen, bool):
            raise StrategyError("screen_bandwidth_bound must be a boolean")
        kwargs["screen_bandwidth_bound"] = screen
    elif name == "pareto+cluster":
        tolerance = payload.get("relative_tolerance", 1e-9)
        if not (is_integer(tolerance) or isinstance(tolerance, float)):
            raise StrategyError(
                f"relative_tolerance must be a number, not {tolerance!r}"
            )
        kwargs["relative_tolerance"] = float(tolerance)
        kwargs["seed"] = _seed(payload)
    elif name == "random":
        sample_size = payload.get("sample_size")
        if not is_integer(sample_size) or sample_size < 1:
            raise StrategyError(
                "random strategy needs a positive integer sample_size"
            )
        kwargs["sample_size"] = sample_size
        kwargs["seed"] = _seed(payload)
    return kwargs


def _adaptive_kwargs(
    spec: StrategySpec, payload: Dict[str, Any]
) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {"seed": _seed(payload)}
    budget = payload.get("budget")
    if budget is not None:
        if not is_integer(budget) or budget < 1:
            raise StrategyError("budget must be a positive integer")
        kwargs["budget"] = budget
    restrict = payload.get("restrict", "full")
    if restrict not in RESTRICT_MODES:
        raise StrategyError(
            f"restrict must be one of {list(RESTRICT_MODES)}, "
            f"not {restrict!r}"
        )
    kwargs["restrict"] = restrict
    for knob, minimum in spec.int_knobs:
        value = payload.get(knob)
        if value is None:
            continue
        if not is_integer(value) or value < minimum:
            raise StrategyError(f"{knob} must be an integer >= {minimum}")
        kwargs[knob] = value
    return kwargs
