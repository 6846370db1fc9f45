"""Property tests for every adaptive (zoo) search strategy.

Parameterized over the registry, so a strategy added there is tested
here automatically: budget never exceeded, no configuration measured
twice within a run, seeded runs reproduce exactly, serial and pooled
runs are bit-identical, trajectories are monotone, and Pareto
restriction confines the search to the Pareto subset.
"""

from __future__ import annotations

import pytest

from repro.arch.occupancy import LaunchError
from repro.harness.payload import search_result_payload
from repro.metrics.model import MetricReport
from repro.tuning.engine import ExecutionEngine
from repro.tuning.search import select_timed
from repro.tuning.space import cartesian
from repro.tuning.strategies import (
    adaptive_strategy_names,
    build_strategy,
)

pytestmark = pytest.mark.fast

ZOO = adaptive_strategy_names()


class SyntheticApp:
    """time = 1/(eff + util + w/2); e=4,u=4 invalid."""

    def __init__(self):
        self.configs = cartesian({
            "e": [1, 2, 3, 4], "u": [1, 2, 3, 4], "w": [1, 2],
        })
        self.simulated = []

    def evaluate(self, config):
        if config["e"] == 4 and config["u"] == 4:
            raise LaunchError("synthetic register overflow")
        report = MetricReport.__new__(MetricReport)
        object.__setattr__(report, "efficiency", float(config["e"]))
        object.__setattr__(report, "utilization", float(config["u"]))
        return report

    def simulate(self, config):
        self.simulated.append(config)
        return 1.0 / (config["e"] + config["u"] + 0.5 * config["w"])


@pytest.fixture
def app():
    return SyntheticApp()


def run_zoo(name, app, *, workers=None, **kwargs):
    engine = ExecutionEngine(app.evaluate, app.simulate, workers=workers)
    try:
        result = build_strategy(name).run(app.configs, engine, **kwargs)
    finally:
        engine.close()
    return result, engine


@pytest.mark.parametrize("name", ZOO)
def test_budget_is_never_exceeded(name, app):
    # Serial: the app's simulate spy only sees in-process calls.
    result, _ = run_zoo(name, app, workers=1, seed=1, budget=7)
    assert result.budget == 7
    assert result.timed_count <= 7
    assert len(app.simulated) <= 7


@pytest.mark.parametrize("name", ZOO)
def test_no_config_measured_twice(name, app):
    result, engine = run_zoo(name, app, workers=1, seed=2, budget=12)
    configs = [entry.config for entry in result.timed]
    assert len(configs) == len(set(configs))
    # dedupe happens above the engine: every simulation was a distinct
    # config, and nothing was served from the measurement memo
    assert engine.stats.simulations == result.timed_count
    assert engine.stats.simulation_cache_hits == 0
    assert len(app.simulated) == result.timed_count


@pytest.mark.parametrize("name", ZOO)
def test_seeded_runs_reproduce_exactly(name, app):
    first, _ = run_zoo(name, app, seed=9, budget=10)
    second, _ = run_zoo(name, SyntheticApp(), seed=9, budget=10)
    assert search_result_payload(first) == search_result_payload(second)
    different, _ = run_zoo(name, SyntheticApp(), seed=10, budget=10)
    # a different seed is allowed to coincide, but across the zoo at
    # least the measurement order should generally differ; assert only
    # on the deterministic part to keep this property strict
    assert [e.config for e in first.timed] == [
        e.config for e in second.timed
    ]
    assert different.budget == first.budget


@pytest.mark.parametrize("name", ZOO)
def test_serial_and_pooled_runs_are_bit_identical(name, app):
    serial, _ = run_zoo(name, app, seed=4, budget=10)
    pooled, _ = run_zoo(name, SyntheticApp(), workers=2, seed=4, budget=10)
    assert search_result_payload(serial) == search_result_payload(pooled)


@pytest.mark.parametrize("name", ZOO)
def test_trajectory_tracks_every_measurement(name, app):
    result, _ = run_zoo(name, app, seed=5, budget=9)
    assert len(result.trajectory) == result.timed_count
    counts = [count for count, _ in result.trajectory]
    assert counts == list(range(1, result.timed_count + 1))
    bests = [seconds for _, seconds in result.trajectory]
    assert all(b <= a for a, b in zip(bests, bests[1:]))
    assert bests[-1] == result.best.seconds


@pytest.mark.parametrize("name", ZOO)
def test_pareto_restriction_confines_the_search(name, app):
    result, engine = run_zoo(name, app, seed=6, budget=20, restrict="pareto")
    evaluated = ExecutionEngine(
        app.evaluate, app.simulate
    ).evaluate_all(app.configs)
    pareto = {entry.config for entry in select_timed("pareto", evaluated)}
    assert result.restrict == "pareto"
    assert result.pool_size == len(pareto)
    assert {entry.config for entry in result.timed} <= pareto
    # the budget clamps to the pool
    assert result.budget == min(20, len(pareto))


@pytest.mark.parametrize("name", ZOO)
def test_default_budget_is_a_quarter_of_the_valid_space(name, app):
    result, _ = run_zoo(name, app, seed=7)
    valid = sum(1 for e in result.evaluated if e.is_valid)
    assert result.budget == max(1, round(0.25 * valid))


@pytest.mark.parametrize("name", ZOO)
def test_budget_larger_than_pool_measures_everything_once(name, app):
    result, _ = run_zoo(name, app, seed=8, budget=10_000)
    valid = sum(1 for e in result.evaluated if e.is_valid)
    assert result.budget == valid
    assert result.timed_count == valid
    configs = [entry.config for entry in result.timed]
    assert len(configs) == len(set(configs))


@pytest.mark.parametrize("name", ZOO)
def test_progress_fires_at_batch_boundaries(name, app):
    engine = ExecutionEngine(app.evaluate, app.simulate)
    seen = []
    build_strategy(name).run(
        app.configs, engine, seed=3, budget=8,
        progress=lambda done, total: seen.append((done, total)),
    )
    engine.close()
    assert seen[0] == (0, 8)
    assert seen[-1][0] == 8
    dones = [done for done, _ in seen]
    assert dones == sorted(dones)
    assert all(total == 8 for _, total in seen)
