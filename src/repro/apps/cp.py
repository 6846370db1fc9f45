"""Coulombic Potential (CP) — electric potential over a grid of points.

Derived from the "Unroll8y" kernel of Stone et al. that the paper
cites [23]: atom data lives in constant memory, each thread computes
the potential at ``tiling`` grid points spaced so that the per-atom
y/z distance work is shared across them, and the reciprocal square
root runs on the SFUs.

Optimization space (Table 4): block size, per-thread tiling,
coalescing of output — 40 raw points, of which the two heavy-register
tiling=16 configurations cannot launch with 384-thread blocks,
matching the paper's 38.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import Application, Arrays, ConfigurationError, Scalars
from repro.arch.memory import MemorySpace
from repro.ir.builder import CTAID_X, TID_X, KernelBuilder
from repro.ir.kernel import Dim3, Kernel
from repro.ir.types import DataType
from repro.transforms.pipeline import standard_cleanup
from repro.tuning.space import ConfigSpace, Configuration

BLOCK_SIZES = (64, 128, 256, 384)
TILING_FACTORS = (1, 2, 4, 8, 16)
GRID_SPACING = 0.5


class CoulombicPotential(Application):
    """V[p] = sum_j q_j / |p - atom_j| over a line of grid points."""

    name = "cp"
    paper_speedup = 647.0
    paper_space_size = 38
    paper_selected = 10
    paper_reduction_percent = 74
    output_names = ("V",)

    # Scalar x87 code paying a divide/sqrt per atom-point pair; the
    # GPU's SFU rsqrt is the source of the paper's 647x (DESIGN.md).
    cpu_effective_ops_per_second = 0.42e9

    def __init__(self, num_points: int = 196608, num_atoms: int = 128) -> None:
        super().__init__()
        # The default point count (2^16 * 3) divides every block x
        # tiling span, so the full 40-point space of the paper exists;
        # smaller test instances simply have fewer valid launches.
        if num_points % min(BLOCK_SIZES) != 0:
            raise ValueError(f"num_points must be a multiple of {min(BLOCK_SIZES)}")
        self.num_points = num_points
        self.num_atoms = num_atoms

    def identity(self):
        return {"num_points": self.num_points, "num_atoms": self.num_atoms}

    # ------------------------------------------------------------------

    def space(self) -> ConfigSpace:
        points = self.num_points

        def valid(config: Configuration) -> bool:
            return points % (config["block"] * config["tiling"]) == 0

        return ConfigSpace(
            {
                "block": list(BLOCK_SIZES),
                "tiling": list(TILING_FACTORS),
                "coalesce_output": [False, True],
            },
            is_valid=valid,
        )

    def build_kernel(self, config: Configuration) -> Kernel:
        block = config["block"]
        tiling = config["tiling"]
        if block not in BLOCK_SIZES or tiling not in TILING_FACTORS:
            raise ConfigurationError(f"unsupported cp config {config}")
        kernel = self._baseline(block, tiling, config["coalesce_output"])
        return standard_cleanup(kernel)

    def _baseline(self, block: int, tiling: int, coalesce: bool) -> Kernel:
        points, atoms = self.num_points, self.num_atoms
        span = block * tiling
        builder = KernelBuilder(
            f"cp_b{block}_t{tiling}{'_c' if coalesce else ''}",
            block_dim=Dim3(block),
            grid_dim=Dim3(points // span),
        )
        atom_data = builder.param_ptr("atoms", DataType.F32,
                                      space=MemorySpace.CONSTANT)
        volume = builder.param_ptr("V", DataType.F32)
        y0 = builder.param_scalar("y0", DataType.F32)
        z0 = builder.param_scalar("z0", DataType.F32)

        # Coalesced layout strides threads across the span so warp
        # stores hit consecutive addresses; the uncoalesced layout
        # gives each thread a contiguous run of points.  At tiling 1
        # the two layouts coincide, so the stores coalesce either way.
        if coalesce:
            first_point = builder.mad(CTAID_X, span, TID_X)
            point_stride = block
        else:
            scaled_tid = builder.mul(TID_X, tiling)
            first_point = builder.mad(CTAID_X, span, scaled_tid)
            point_stride = 1
        stores_coalesce = coalesce or tiling == 1

        x_first = builder.mul(builder.cvt(first_point, DataType.F32),
                              GRID_SPACING)
        accumulators = [builder.mov(0.0) for _ in range(tiling)]

        with builder.loop(0, atoms, label="atoms") as k:
            base = builder.mul(k, 4)
            ax = builder.ld(atom_data, base, offset=0)
            ay = builder.ld(atom_data, base, offset=1)
            az = builder.ld(atom_data, base, offset=2)
            charge = builder.ld(atom_data, base, offset=3)
            dy = builder.sub(y0, ay)
            dz = builder.sub(z0, az)
            dz2 = builder.mul(dz, dz)
            dyz2 = builder.mad(dy, dy, dz2)
            dx_first = builder.sub(x_first, ax)
            for r in range(tiling):
                # Point r sits r*stride grid cells to the right; the
                # offset folds to an immediate, so no per-point
                # coordinate registers are needed.
                dx = builder.add(dx_first, float(r * point_stride * GRID_SPACING))
                dist2 = builder.mad(dx, dx, dyz2)
                inv = builder.rsqrt(dist2)
                builder.mad(charge, inv, accumulators[r],
                            dest=accumulators[r])
        for r, acc in enumerate(accumulators):
            builder.st(volume, first_point, acc, coalesced=stores_coalesce,
                       offset=r * point_stride)
        return builder.finish()

    # ------------------------------------------------------------------

    def test_instance(self) -> "CoulombicPotential":
        return CoulombicPotential(num_points=3072, num_atoms=8)

    def make_inputs(self, rng: np.random.Generator) -> Tuple[Arrays, Scalars]:
        # Atoms placed off the sampled line so distances never vanish.
        atoms = rng.uniform(1.0, 8.0, size=(self.num_atoms, 4)).astype(np.float32)
        return (
            {
                "atoms": atoms.ravel(),
                "V": np.zeros(self.num_points, dtype=np.float32),
            },
            {"y0": 10.0, "z0": -10.0},
        )

    def reference(self, arrays: Arrays, scalars: Scalars) -> Arrays:
        atoms = arrays["atoms"].reshape(self.num_atoms, 4).astype(np.float64)
        x = np.arange(self.num_points, dtype=np.float64) * GRID_SPACING
        dx = x[:, None] - atoms[None, :, 0]
        dy = scalars["y0"] - atoms[:, 1]
        dz = scalars["z0"] - atoms[:, 2]
        dist = np.sqrt(dx * dx + (dy * dy + dz * dz)[None, :])
        potential = (atoms[:, 3][None, :] / dist).sum(axis=1)
        return {"V": potential.astype(np.float32)}

    def work_operations(self) -> float:
        # ~10 scalar operations per atom-point pair, sqrt included.
        return 10.0 * self.num_points * self.num_atoms

    def default_configuration(self) -> Configuration:
        return Configuration({"block": 128, "tiling": 1, "coalesce_output": True})
