"""Whole-GPU timing estimate for one kernel configuration.

The full grids of the paper's applications run tens of thousands of
thread blocks; simulating each one is pointless because blocks are
identical in structure.  We simulate a couple of full residencies of
one SM (fill + steady state) and extrapolate block throughput across
the grid and the 16 SMs — the same reasoning the paper applies when it
scales results from reduced inputs ("execution time will scale
accordingly with an increase in input data size").
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Union

from repro.arch.occupancy import LaunchError, Occupancy
from repro.cubin.resources import ResourceUsage, cubin_info
from repro.ir.kernel import Kernel
from repro.obs.trace import span
from repro.ptx.view import ViewCache
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.sim.fingerprint import Launch, SimulationCache, kernel_fingerprint
from repro.sim.sm import SMResult, simulate_sm
from repro.sim.trace import build_trace


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Timing estimate plus the evidence behind it."""

    kernel_name: str
    cycles: float
    seconds: float
    occupancy: Occupancy
    resources: ResourceUsage
    sm: SMResult
    trace_events: int
    blocks_sampled: int
    blocks_per_sm_total: int

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


def simulate_kernel(
    kernel: Union[Kernel, Callable[[], Kernel]],
    config: SimConfig = DEFAULT_SIM_CONFIG,
    resources: Optional[ResourceUsage] = None,
    cache: Optional[SimulationCache] = None,
    launch: Optional[Launch] = None,
    views: Optional[ViewCache] = None,
) -> SimulationResult:
    """Estimate a kernel's execution time on the device.

    Raises LaunchError for configurations that do not fit on an SM —
    the paper's "invalid executable" points.

    ``resources`` threads in the compile pass a caller (the static
    metric stage) has already run for this kernel.  ``cache`` enables
    content-addressed sharing: the kernel is fingerprinted (see
    :mod:`repro.sim.fingerprint`) and the compile pass, the warp
    trace, and the SM replay are each reused whenever another kernel
    with the same post-transform code shape was simulated before.
    Only ``blocks_per_sm_total`` — the single grid-dependent factor —
    is recomputed per call, so cache hits are exact, not approximate.

    ``launch`` (with ``cache``) describes the kernel by its fingerprint,
    name and block count, so the kernel itself is needed only when a
    cache tier misses: ``kernel`` may then be a zero-argument callable
    that builds it, called only for the compile pass or the trace.

    ``views`` (a :class:`~repro.ptx.view.ViewCache` over kernels that
    are never mutated) supplies the kernel's view to the fingerprint,
    the compile pass and the trace.  Without it they share a view
    built for this call alone.
    """
    if views is None:
        views = ViewCache()
    if launch is None:
        launch = Launch(
            kernel_fingerprint(kernel, config, views=views)
            if cache is not None else "",
            kernel.name, kernel.num_blocks,
        )
    build = kernel if callable(kernel) else lambda: kernel
    fingerprint = launch.fingerprint if cache is not None else None
    if resources is None:
        if fingerprint is not None:
            resources = cache.lookup_resources(fingerprint)
        if resources is None:
            with span("sim.compile", cat="sim", kernel=launch.kernel_name):
                built_kernel = build()
                resources = cubin_info(built_kernel, view=views.view(built_kernel))
            if fingerprint is not None:
                cache.store_resources(fingerprint, resources)
    elif fingerprint is not None:
        # Threaded-in compile results seed the cache for siblings.
        cache.store_resources(fingerprint, resources)
    occupancy = resources.occupancy(config.device)

    trace = None
    if fingerprint is not None:
        trace = cache.lookup_trace(fingerprint)
    if trace is None:
        with span("sim.trace_build", cat="sim", kernel=launch.kernel_name):
            built_kernel = build()
            trace = build_trace(built_kernel, config, view=views.view(built_kernel))
        if fingerprint is not None:
            cache.store_trace(fingerprint, trace)
    blocks_per_sm_total = math.ceil(launch.num_blocks / config.device.num_sms)
    blocks_to_sample = min(
        blocks_per_sm_total,
        occupancy.blocks_per_sm * config.simulated_waves,
    )
    sm_result = None
    if fingerprint is not None:
        sm_result = cache.lookup_sm(fingerprint, blocks_to_sample)
    if sm_result is None:
        sm_result = simulate_sm(
            trace=trace,
            warps_per_block=occupancy.warps_per_block,
            blocks_resident=occupancy.blocks_per_sm,
            total_blocks=blocks_to_sample,
            config=config,
        )
        if fingerprint is not None:
            cache.store_sm(fingerprint, blocks_to_sample, sm_result)
    cycles = sm_result.cycles_per_block * blocks_per_sm_total
    return SimulationResult(
        kernel_name=launch.kernel_name,
        cycles=cycles,
        seconds=config.device.cycles_to_seconds(cycles),
        occupancy=occupancy,
        resources=resources,
        sm=sm_result,
        trace_events=len(trace),
        blocks_sampled=blocks_to_sample,
        blocks_per_sm_total=blocks_per_sm_total,
    )


def simulate_seconds(
    kernel: Kernel,
    config: SimConfig = DEFAULT_SIM_CONFIG,
    resources: Optional[ResourceUsage] = None,
    cache: Optional[SimulationCache] = None,
) -> float:
    """Scalar timing entry point: estimated seconds for one kernel.

    The measurement the search strategies pay for, reduced to the one
    float the execution engine caches, stores, and ships across
    process-pool boundaries (see ``repro.tuning.engine``).
    """
    return simulate_kernel(kernel, config, resources, cache).seconds


__all__ = [
    "LaunchError",
    "SimulationCache",
    "SimulationResult",
    "kernel_fingerprint",
    "simulate_kernel",
    "simulate_seconds",
]
