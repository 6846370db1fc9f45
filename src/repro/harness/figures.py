"""Regeneration of the paper's figures as data series (plus ASCII art).

* Figure 3 — matmul runtime across the abbreviated optimization space;
* Figure 4 — SAD runtime versus threads per block across the space;
* Figure 5 — CP execution time against 1/Efficiency and 1/Utilization
  over the per-thread tiling sweep;
* Figure 6 — normalized efficiency/utilization scatter with the
  Pareto-optimal subset and the true optimum, per application.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.cp import CoulombicPotential
from repro.apps.matmul import MatMul
from repro.arch.occupancy import LaunchError
from repro.harness.experiment import AppExperiment
from repro.tuning.pareto import pareto_indices
from repro.tuning.space import Configuration
from repro.transforms.unroll import COMPLETE


# ----------------------------------------------------------------------
# Figure 3.

def figure3_series(app: Optional[MatMul] = None) -> List[Dict]:
    """Matmul runtimes over the Figure 3 space (spilling off).

    Invalid configurations (the paper's far-right prefetch point) get
    ``time_ms=None``.  ``app`` may also be a matmul
    :class:`AppExperiment`, whose full exploration already holds every
    number the figure needs.
    """
    app = app or MatMul()
    rows = []
    for tile in (8, 16):
        for rect in (1, 2, 4):
            for unroll in (1, 2, 4, COMPLETE):
                for prefetch in (False, True):
                    config = Configuration({
                        "tile": tile, "rect": rect, "unroll": unroll,
                        "prefetch": prefetch, "spill": False,
                    })
                    try:
                        app.evaluate(config)
                        time_ms = app.simulate(config) * 1e3
                    except LaunchError:
                        time_ms = None
                    rows.append({
                        "tile": tile, "rect": rect,
                        "unroll": str(unroll), "prefetch": prefetch,
                        "time_ms": time_ms,
                    })
    return rows


# ----------------------------------------------------------------------
# Figure 4.

def figure4_series(experiment: AppExperiment) -> List[Dict]:
    """SAD runtime against threads per block for every valid config."""
    rows = []
    for entry in experiment.exhaustive.timed:
        config = entry.config
        threads = config["positions_per_block"] // config["tiling"]
        rows.append({
            "threads_per_block": threads,
            "time_ms": entry.seconds * 1e3,
            "config": dict(config),
        })
    rows.sort(key=lambda r: (r["threads_per_block"], r["time_ms"]))
    return rows


# ----------------------------------------------------------------------
# Figure 5.

def figure5_series(
    app: Optional[CoulombicPotential] = None,
    block: int = 128,
) -> List[Dict]:
    """CP time and reciprocal metrics over the tiling sweep.

    The reciprocals are normalized to their maxima, as in the paper
    ("We plot the normalized reciprocals of the performance metrics,
    so lower is better in both plots").  ``app`` may also be a cp
    :class:`AppExperiment`, as for :func:`figure3_series`.
    """
    app = app or CoulombicPotential()
    tilings = (1, 2, 4, 8, 16)
    raw = []
    for tiling in tilings:
        config = Configuration({
            "block": block, "tiling": tiling, "coalesce_output": True,
        })
        metrics = app.evaluate(config)
        raw.append({
            "tiling": tiling,
            "time_s": app.simulate(config),
            "inv_efficiency": 1.0 / metrics.efficiency,
            "inv_utilization": 1.0 / metrics.utilization,
        })
    max_eff = max(r["inv_efficiency"] for r in raw)
    max_util = max(r["inv_utilization"] for r in raw)
    for row in raw:
        row["inv_efficiency_norm"] = row["inv_efficiency"] / max_eff
        row["inv_utilization_norm"] = row["inv_utilization"] / max_util
    return raw


# ----------------------------------------------------------------------
# Figure 6.

@dataclasses.dataclass
class Figure6Data:
    """Normalized metric scatter for one application."""

    name: str
    points: List[Tuple[float, float]]          # (efficiency, utilization)
    configs: List[Configuration]
    times: List[float]
    pareto: List[int]                          # indices into points
    optimal: int                               # index of the true optimum

    @property
    def optimum_on_curve(self) -> bool:
        return self.optimal in set(self.pareto)


def figure6_data(experiment: AppExperiment) -> Figure6Data:
    """Normalized efficiency/utilization scatter (Figure 6(a)-(d))."""
    timed = experiment.exhaustive.timed
    max_eff = max(e.metrics.efficiency for e in timed)
    max_util = max(e.metrics.utilization for e in timed)
    points = [
        (e.metrics.efficiency / max_eff, e.metrics.utilization / max_util)
        for e in timed
    ]
    times = [e.seconds for e in timed]
    optimal = min(range(len(timed)), key=lambda i: times[i])
    return Figure6Data(
        name=experiment.name,
        points=points,
        configs=[e.config for e in timed],
        times=times,
        pareto=pareto_indices(points),
        optimal=optimal,
    )


def ascii_scatter(
    points: Sequence[Tuple[float, float]],
    pareto: Sequence[int],
    optimal: int,
    width: int = 64,
    height: int = 20,
) -> str:
    """Render a Figure 6 panel as ASCII: '.' point, 'o' Pareto, '@' optimum."""
    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, char: str) -> None:
        column = min(width - 1, int(x * (width - 1)))
        row = height - 1 - min(height - 1, int(y * (height - 1)))
        current = grid[row][column]
        rank = {" ": 0, ".": 1, "o": 2, "@": 3}
        if rank[char] >= rank.get(current, 0):
            grid[row][column] = char

    for index, (x, y) in enumerate(points):
        place(x, y, ".")
    for index in pareto:
        place(points[index][0], points[index][1], "o")
    place(points[optimal][0], points[optimal][1], "@")
    frame = ["+" + "-" * width + "+"]
    frame.extend("|" + "".join(row) + "|" for row in grid)
    frame.append("+" + "-" * width + "+")
    frame.append("x: efficiency (normalized)  y: utilization (normalized)")
    frame.append(".: config  o: Pareto subset  @: true optimum")
    return "\n".join(frame)
