"""MRI-FHD — computation of F^H d for non-Cartesian MRI reconstruction.

Each voxel accumulates, over every k-space sample, a sine/cosine term
of the phase 2*pi*(kx*x + ky*y + kz*z) weighted by the sample's
complex density (Stone et al. [24]).  Sample data lives in constant
memory; sin/cos run on the SFUs.

Optimization space (Table 4): block size, unroll factor, work per
kernel invocation — 5 x 5 x 7 = 175 configurations.  Splitting the
voxel grid across invocations changes neither the per-thread
instruction stream nor the total thread count, so each (block, unroll)
pair yields seven configurations with identical metrics: the clusters
of seven in Figure 6(b).

The ``layout`` option reproduces the Section 5.3 anecdote: the
array-of-structures layout makes deeper unrolling thrash the
single-ported constant cache, degrading performance while the metrics
stay flat.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.apps.base import Application, Arrays, ConfigurationError, Scalars
from repro.arch.memory import MemorySpace
from repro.ir.builder import CTAID_X, TID_X, KernelBuilder
from repro.ir.kernel import Dim3, Kernel
from repro.ir.types import DataType
from repro.metrics.model import MetricReport
from repro.sim.config import DEFAULT_SIM_CONFIG, SimConfig
from repro.transforms.pipeline import standard_cleanup
from repro.transforms.unroll import unroll
from repro.tuning.space import ConfigSpace, Configuration

BLOCK_SIZES = (64, 128, 256, 320, 512)
UNROLL_FACTORS = (1, 2, 4, 8, 16)
INVOCATION_SPLITS = (1, 2, 4, 8, 16, 32, 64)
TWO_PI = 2.0 * math.pi

#: Per-launch driver/runtime overhead (seconds).  CUDA 1.0 kernel
#: launches cost a few microseconds; this is what separates the seven
#: otherwise-identical configurations of one metric cluster.
LAUNCH_OVERHEAD_SECONDS = 2.0e-6

GOOD_LAYOUT = "soa"
CONFLICTED_LAYOUT = "aos"


class MriFhd(Application):
    """F^H d accumulation over k-space samples for every voxel."""

    name = "mri-fhd"
    paper_speedup = 228.0
    paper_space_size = 175
    paper_selected = 30
    paper_reduction_percent = 77
    output_names = ("rFHd", "iFHd")

    # libm sin/cos dominate the single-thread baseline (DESIGN.md).
    cpu_effective_ops_per_second = 0.55e9

    def __init__(
        self,
        # Divisible by every (block x invocations x 16 SMs) combination,
        # so launches always fill whole SM waves and the only
        # intra-cluster timing difference is launch overhead.
        num_voxels: int = 2_621_440,
        num_samples: int = 512,
        layout: str = GOOD_LAYOUT,
    ) -> None:
        super().__init__()
        if layout not in (GOOD_LAYOUT, CONFLICTED_LAYOUT):
            raise ValueError(f"unknown layout {layout!r}")
        self.num_voxels = num_voxels
        self.num_samples = num_samples
        self.layout = layout

    def identity(self):
        return {"num_voxels": self.num_voxels,
                "num_samples": self.num_samples, "layout": self.layout}

    # ------------------------------------------------------------------

    def space(self) -> ConfigSpace:
        voxels = self.num_voxels

        def valid(config: Configuration) -> bool:
            per_launch = voxels // config["invocations"]
            if voxels % config["invocations"]:
                return False
            return per_launch % config["block"] == 0

        return ConfigSpace(
            {
                "block": list(BLOCK_SIZES),
                "unroll": list(UNROLL_FACTORS),
                "invocations": list(INVOCATION_SPLITS),
            },
            is_valid=valid,
        )

    def build_kernel(self, config: Configuration) -> Kernel:
        block = config["block"]
        invocations = config["invocations"]
        if block not in BLOCK_SIZES or invocations not in INVOCATION_SPLITS:
            raise ConfigurationError(f"unsupported mri config {config}")
        if invocations != 1:
            # The split changes only the launch (name and grid), never
            # the body: share the single-launch kernel's build.
            name, grid = self._launch(block, invocations)
            return dataclasses.replace(
                self.kernel(config.replace(invocations=1)),
                name=name, grid_dim=grid,
            )
        kernel = self._shared_baseline(block)
        kernel = unroll(kernel, config["unroll"], label="samples")
        return standard_cleanup(kernel)

    def trace_group_key(self, config: Configuration):
        # The invocation split changes only the grid (voxels per
        # launch); the per-launch kernel body — and therefore the
        # trace program — is a function of (block, unroll) alone, so
        # all seven splits of a pair form one measurement task.
        return (config["block"], config["unroll"])

    def _launch(self, block: int, invocations: int) -> Tuple[str, Dim3]:
        """Kernel name and grid of one launch under an invocation split."""
        voxels_per_launch = self.num_voxels // invocations
        return (
            f"fhd_b{block}_i{invocations}", Dim3(voxels_per_launch // block)
        )

    def _baseline(self, block: int) -> Kernel:
        """The single-launch kernel, before unrolling and cleanup."""
        name, grid = self._launch(block, 1)
        samples = self.num_samples
        builder = KernelBuilder(name, block_dim=Dim3(block), grid_dim=grid)
        coords = builder.param_ptr("coords", DataType.F32)
        kdata = builder.param_ptr("kdata", DataType.F32,
                                  space=MemorySpace.CONSTANT)
        r_out = builder.param_ptr("rFHd", DataType.F32)
        i_out = builder.param_ptr("iFHd", DataType.F32)
        voxel_offset = builder.param_scalar("voxel_offset", DataType.S32)

        local_index = builder.mad(CTAID_X, block, TID_X)
        voxel = builder.add(local_index, voxel_offset)
        x = builder.ld(coords, voxel, offset=0)
        y = builder.ld(coords, voxel, offset=self.num_voxels)
        z = builder.ld(coords, voxel, offset=2 * self.num_voxels)
        r_total = builder.mov(0.0)
        i_total = builder.mov(0.0)

        with builder.loop(0, samples, label="samples") as k:
            if self.layout == GOOD_LAYOUT:
                # Structure of arrays: kx | ky | kz | rMu | iMu planes.
                base, stride = k, samples
            else:
                # Array of structures: 5-float records.
                base, stride = builder.mul(k, 5), 1
            kx = builder.ld(kdata, base, offset=0 * stride)
            ky = builder.ld(kdata, base, offset=1 * stride)
            kz = builder.ld(kdata, base, offset=2 * stride)
            r_mu = builder.ld(kdata, base, offset=3 * stride)
            i_mu = builder.ld(kdata, base, offset=4 * stride)
            t1 = builder.mul(kx, x)
            t2 = builder.mad(ky, y, t1)
            t3 = builder.mad(kz, z, t2)
            arg = builder.mul(t3, TWO_PI)
            cos_arg = builder.cos(arg)
            sin_arg = builder.sin(arg)
            builder.mad(r_mu, cos_arg, r_total, dest=r_total)
            builder.mad(i_mu, sin_arg, r_total, dest=r_total)
            builder.mad(i_mu, cos_arg, i_total, dest=i_total)
            cross = builder.mul(r_mu, sin_arg)
            builder.sub(i_total, cross, dest=i_total)
        builder.st(r_out, voxel, r_total)
        builder.st(i_out, voxel, i_total)
        return builder.finish()

    # ------------------------------------------------------------------
    # Metric/time aggregation across invocations.

    def evaluate(self, config: Configuration) -> MetricReport:
        """Metrics are invocation-independent (the Figure 6(b) clusters).

        The per-thread instruction stream and the total thread count do
        not depend on how the voxel grid is split across launches, so
        the metrics are computed on the single-launch kernel; the base
        class's compile tier then collapses the seven invocation splits
        of each (block, unroll) pair onto one evaluation.
        """
        return super().evaluate(config.replace(invocations=1))

    def sim_config(self, config: Configuration) -> SimConfig:
        if self.layout == GOOD_LAYOUT:
            return DEFAULT_SIM_CONFIG
        # AoS records interleave five streams; unrolling multiplies the
        # distinct lines fighting over the single-ported constant cache.
        ways = min(int(config["unroll"]) * 2, 16)
        return dataclasses.replace(
            DEFAULT_SIM_CONFIG, constant_conflict_ways=ways
        )

    def _total_seconds(self, config: Configuration, result) -> float:
        """Whole-computation time: per-launch simulation times the
        invocation count, plus launch overhead.  (``simulate_detailed``
        still reports a single launch.)"""
        invocations = config["invocations"]
        return (
            result.seconds * invocations
            + LAUNCH_OVERHEAD_SECONDS * invocations
        )

    def run_config(self, config, arrays, scalars=None, engine="scalar"):
        """Execute every invocation so all voxels are covered."""
        from repro.interp import launch, launch_vectorized

        runner = {"scalar": launch, "vectorized": launch_vectorized}[engine]
        work = {name: array.copy() for name, array in arrays.items()}
        invocations = config["invocations"]
        voxels_per_launch = self.num_voxels // invocations
        for launch_index in range(invocations):
            runner(self.kernel(config), work,
                   {"voxel_offset": launch_index * voxels_per_launch})
        return {name: work[name] for name in self.output_names}

    # ------------------------------------------------------------------

    def test_instance(self) -> "MriFhd":
        return MriFhd(num_voxels=2048, num_samples=16, layout=self.layout)

    def make_inputs(self, rng: np.random.Generator) -> Tuple[Arrays, Scalars]:
        coords = rng.uniform(-1.0, 1.0, 3 * self.num_voxels).astype(np.float32)
        kdata = rng.uniform(-0.5, 0.5, 5 * self.num_samples).astype(np.float32)
        return (
            {
                "coords": coords,
                "kdata": kdata,
                "rFHd": np.zeros(self.num_voxels, dtype=np.float32),
                "iFHd": np.zeros(self.num_voxels, dtype=np.float32),
            },
            {"voxel_offset": 0},
        )

    def reference(self, arrays: Arrays, scalars: Scalars) -> Arrays:
        voxels, samples = self.num_voxels, self.num_samples
        coords = arrays["coords"].astype(np.float64)
        x, y, z = coords[:voxels], coords[voxels:2 * voxels], coords[2 * voxels:]
        kdata = arrays["kdata"].astype(np.float64)
        if self.layout == GOOD_LAYOUT:
            kx, ky, kz = kdata[:samples], kdata[samples:2 * samples], kdata[2 * samples:3 * samples]
            r_mu, i_mu = kdata[3 * samples:4 * samples], kdata[4 * samples:]
        else:
            records = kdata.reshape(samples, 5)
            kx, ky, kz, r_mu, i_mu = records.T
        arg = TWO_PI * (
            np.outer(x, kx) + np.outer(y, ky) + np.outer(z, kz)
        )
        cos_arg, sin_arg = np.cos(arg), np.sin(arg)
        r_fhd = cos_arg @ r_mu + sin_arg @ i_mu
        i_fhd = cos_arg @ i_mu - sin_arg @ r_mu
        return {
            "rFHd": r_fhd.astype(np.float32),
            "iFHd": i_fhd.astype(np.float32),
        }

    def work_operations(self) -> float:
        return 16.0 * self.num_voxels * self.num_samples

    def default_configuration(self) -> Configuration:
        """The paper's hand-optimized starting point analogue."""
        return Configuration({"block": 256, "unroll": 1, "invocations": 4})
