"""Dense matrix multiplication (paper Sections 3.1-3.2, Figures 2-3).

The kernel family follows Figure 2 exactly: a block computes a
``tile x tile*rect`` output tile; threads cooperatively stage square
input tiles through shared memory; each thread accumulates ``rect``
output elements (1xN rectangular thread tiling, Figure 2(b)); the
inner product loop can be unrolled (Figure 2(c)); global loads can be
prefetched one tile ahead (Figure 2(d)); and registers can be
proactively spilled (Section 3.1, resource balancing).

Optimization space (Table 4): tile/block size, rectangular tile
dimension, unroll factor, prefetching, register spilling.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import Application, Arrays, ConfigurationError, Scalars
from repro.ir.builder import CTAID_X, CTAID_Y, TID_X, TID_Y, KernelBuilder
from repro.ir.kernel import Dim3, Kernel
from repro.ir.types import DataType
from repro.transforms.pipeline import standard_cleanup
from repro.transforms.prefetch import prefetch_global_loads
from repro.transforms.spill import spill_registers
from repro.transforms.unroll import COMPLETE, unroll
from repro.tuning.space import ConfigSpace, Configuration

TILE_SIZES = (8, 16)
RECT_TILINGS = (1, 2, 4)
UNROLL_FACTORS = (1, 2, 4, COMPLETE)
SPILL_COUNT = 2

#: Minimum contiguous half-warp span for coalesced DRAM access: 8-wide
#: tiles leave half-warps straddling rows, defeating coalescing.
COALESCE_MIN_WIDTH = 16


class MatMul(Application):
    """C = A * B for dense N x N single-precision matrices."""

    name = "matmul"
    paper_speedup = 6.98
    paper_space_size = 93
    paper_selected = 11
    paper_reduction_percent = 88
    output_names = ("C",)

    # MKL SGEMM on the paper's 2.66 GHz Core2 runs near SIMD peak;
    # see DESIGN.md "Substitutions" for the Table 3 CPU model.
    cpu_effective_ops_per_second = 17.0e9

    def __init__(self, n: int = 1024) -> None:
        super().__init__()
        if n % (max(TILE_SIZES) * max(RECT_TILINGS)) != 0:
            raise ValueError(
                f"matrix size {n} must be a multiple of "
                f"{max(TILE_SIZES) * max(RECT_TILINGS)}"
            )
        self.n = n

    def identity(self):
        return {"n": self.n}

    # ------------------------------------------------------------------

    def space(self) -> ConfigSpace:
        return ConfigSpace({
            "tile": list(TILE_SIZES),
            "rect": list(RECT_TILINGS),
            "unroll": list(UNROLL_FACTORS),
            "prefetch": [False, True],
            "spill": [False, True],
        })

    def build_kernel(self, config: Configuration) -> Kernel:
        tile = config["tile"]
        rect = config["rect"]
        if tile not in TILE_SIZES or rect not in RECT_TILINGS:
            raise ConfigurationError(f"unsupported matmul config {config}")
        if config["spill"]:
            # Spilling runs after cleanup, so the spilled kernel is its
            # unspilled twin's plus spill code: share that twin's build.
            twin = self.kernel(config.replace(spill=False))
            return spill_registers(
                twin, SPILL_COUNT, view=self._views.view(twin)
            )
        kernel = self._shared_baseline(tile, rect)
        kernel = unroll(kernel, config["unroll"], label="inner")
        if config["prefetch"]:
            kernel = prefetch_global_loads(kernel, label="ktile")
        return standard_cleanup(kernel)

    def _baseline(self, tile: int, rect: int) -> Kernel:
        """The Figure 2(a)/(b) kernel for one tiling choice."""
        n = self.n
        wide = tile * rect
        coalesced = tile >= COALESCE_MIN_WIDTH
        builder = KernelBuilder(
            f"mm_{tile}x{tile}_1x{rect}",
            block_dim=Dim3(tile, tile),
            grid_dim=Dim3(n // wide, n // tile),
        )
        a_param = builder.param_ptr("A", DataType.F32)
        b_param = builder.param_ptr("B", DataType.F32)
        c_param = builder.param_ptr("C", DataType.F32)
        a_tile = builder.shared("As", DataType.F32, (tile, tile))
        b_tile = builder.shared("Bs", DataType.F32, (tile, wide))

        row = builder.mad(CTAID_Y, tile, TID_Y)
        col = builder.mad(CTAID_X, wide, TID_X)
        index_a = builder.mad(row, n, TID_X)
        index_b = builder.mad(TID_Y, n, col)
        index_c = builder.mad(row, n, col)
        shared_idx = builder.mad(TID_Y, tile, TID_X)
        b_shared_idx = (
            shared_idx if rect == 1 else builder.mad(TID_Y, wide, TID_X)
        )
        a_row_base = builder.mul(TID_Y, tile)
        accumulators = [builder.mov(0.0) for _ in range(rect)]

        with builder.loop(0, n // tile, label="ktile") as _:
            a_value = builder.ld(a_param, index_a, coalesced=coalesced)
            b_values = [
                builder.ld(b_param, index_b, coalesced=coalesced, offset=r * tile)
                for r in range(rect)
            ]
            builder.st(a_tile, shared_idx, a_value)
            for r, value in enumerate(b_values):
                builder.st(b_tile, b_shared_idx, value, offset=r * tile)
            builder.add(index_a, tile, dest=index_a)
            builder.add(index_b, tile * n, dest=index_b)
            builder.bar()
            with builder.loop(0, tile, label="inner") as i:
                a_idx = builder.add(a_row_base, i)
                a_elem = builder.ld(a_tile, a_idx)
                b_idx = builder.mad(i, wide, TID_X)
                for r in range(rect):
                    b_elem = builder.ld(b_tile, b_idx, offset=r * tile)
                    builder.mad(a_elem, b_elem, accumulators[r],
                                dest=accumulators[r])
            builder.bar()
        for r, acc in enumerate(accumulators):
            builder.st(c_param, index_c, acc, coalesced=coalesced,
                       offset=r * tile)
        return builder.finish()

    # ------------------------------------------------------------------

    def test_instance(self) -> "MatMul":
        return MatMul(n=64)

    def make_inputs(self, rng: np.random.Generator) -> Tuple[Arrays, Scalars]:
        n = self.n
        return (
            {
                "A": rng.standard_normal(n * n, dtype=np.float32),
                "B": rng.standard_normal(n * n, dtype=np.float32),
                "C": np.zeros(n * n, dtype=np.float32),
            },
            {},
        )

    def reference(self, arrays: Arrays, scalars: Scalars) -> Arrays:
        n = self.n
        a = arrays["A"].reshape(n, n).astype(np.float64)
        b = arrays["B"].reshape(n, n).astype(np.float64)
        return {"C": (a @ b).astype(np.float32).ravel()}

    def work_operations(self) -> float:
        return 2.0 * self.n ** 3

    def default_configuration(self) -> Configuration:
        """A typical hand-written starting point: plain 16x16 tiling."""
        return Configuration({
            "tile": 16, "rect": 1, "unroll": 1,
            "prefetch": False, "spill": False,
        })
