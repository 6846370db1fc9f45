"""Discrete-event timing simulator of the GeForce 8800 (wall-clock substitute)."""

from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.sim.fingerprint import SimulationCache, kernel_fingerprint
from repro.sim.gpu import SimulationResult, simulate_kernel
from repro.sim.sm import SimulationDeadlock, SMResult, simulate_sm
from repro.sim.trace import (
    BARRIER,
    COMPUTE,
    LOAD,
    SFU,
    STORE,
    USE,
    WarpTrace,
    build_trace,
)

__all__ = [
    "BARRIER",
    "COMPUTE",
    "DEFAULT_SIM_CONFIG",
    "LOAD",
    "SFU",
    "STORE",
    "SMResult",
    "SimConfig",
    "SimulationCache",
    "SimulationDeadlock",
    "SimulationResult",
    "USE",
    "WarpTrace",
    "build_trace",
    "kernel_fingerprint",
    "simulate_kernel",
    "simulate_sm",
]
