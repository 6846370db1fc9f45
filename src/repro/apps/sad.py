"""Sum of Absolute Differences (SAD) — MPEG motion-estimation kernel.

"SADs are computed between 4x4 pixel blocks in two QCIF-size images
over a 32 pixel square search area" (Table 3).  Both frames are read
through the texture cache, whose clamped edge addressing handles the
search positions that fall off the frame (Table 1: "configurable
returned-value behavior at the edges of textures ... useful in certain
applications such as video encoders").

Optimization space (Table 4): per-thread tiling (search positions per
thread), unroll factors for the three loops (search positions, block
rows, block columns), and work per thread block.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.apps.base import Application, Arrays, ConfigurationError, Scalars
from repro.arch.memory import MemorySpace
from repro.ir.builder import CTAID_X, CTAID_Y, TID_X, KernelBuilder
from repro.ir.kernel import Dim3, Kernel
from repro.ir.types import DataType
from repro.transforms.pipeline import standard_cleanup
from repro.transforms.unroll import unroll
from repro.tuning.space import ConfigSpace, Configuration

BLOCK_EDGE = 4                       # 4x4 pixel blocks
POSITIONS_PER_BLOCK = (32, 64, 128, 256, 512, 1024)
TILING_FACTORS = (1, 2, 4, 8, 16)
SEARCH_UNROLLS = (1, 2, 4, 8)
ROW_UNROLLS = (1, 2, 4)
COL_UNROLLS = (1, 2, 4)
MIN_THREADS = 16
MAX_THREADS = 512


class SumOfAbsoluteDifferences(Application):
    """SADs of every 4x4 block against a square search area."""

    name = "sad"
    paper_speedup = 5.51
    paper_space_size = 908
    paper_selected = 16
    paper_reduction_percent = 98
    output_names = ("sad",)

    # PSADBW-style SIMD absolute differences run extremely fast on the
    # CPU, which is why the paper's speedup is only 5.51x (DESIGN.md).
    cpu_effective_ops_per_second = 12.0e9

    def __init__(
        self,
        width: int = 176,
        height: int = 144,
        search_width: int = 32,
    ) -> None:
        super().__init__()
        if width % BLOCK_EDGE or height % BLOCK_EDGE:
            raise ValueError("frame dimensions must be multiples of 4")
        self.width = width
        self.height = height
        self.search_width = search_width
        self.positions = search_width * search_width
        self.blocks_x = width // BLOCK_EDGE
        self.blocks_y = height // BLOCK_EDGE
        self.num_macroblocks = self.blocks_x * self.blocks_y

    def identity(self):
        return {"width": self.width, "height": self.height,
                "search_width": self.search_width}

    # ------------------------------------------------------------------

    def space(self) -> ConfigSpace:
        positions = self.positions

        def valid(config: Configuration) -> bool:
            per_block = config["positions_per_block"]
            tiling = config["tiling"]
            if per_block > positions or positions % per_block:
                return False
            if per_block % tiling:
                return False
            threads = per_block // tiling
            return MIN_THREADS <= threads <= MAX_THREADS

        return ConfigSpace(
            {
                "positions_per_block": [
                    p for p in POSITIONS_PER_BLOCK if p <= positions
                ],
                "tiling": list(TILING_FACTORS),
                "unroll_search": list(SEARCH_UNROLLS),
                "unroll_rows": list(ROW_UNROLLS),
                "unroll_cols": list(COL_UNROLLS),
            },
            is_valid=valid,
        )

    def build_kernel(self, config: Configuration) -> Kernel:
        per_block = config["positions_per_block"]
        tiling = config["tiling"]
        if per_block % tiling:
            raise ConfigurationError(f"invalid sad config {config}")
        search = config["unroll_search"]
        if search > 1 and search >= tiling:
            # Any factor of at least ``tiling`` (the search loop's trip
            # count) expands that loop completely: share the build of
            # the smallest such factor.
            complete = min(f for f in SEARCH_UNROLLS if 1 < f and tiling <= f)
            if search != complete:
                return self.kernel(config.replace(unroll_search=complete))
        kernel = self._shared_baseline(per_block, tiling)
        kernel = unroll(kernel, config["unroll_cols"], label="cols")
        kernel = unroll(kernel, config["unroll_rows"], label="rows")
        kernel = unroll(kernel, config["unroll_search"], label="search")
        return standard_cleanup(kernel)

    def _baseline(self, per_block: int, tiling: int) -> Kernel:
        width = self.width
        search = self.search_width
        half = search // 2
        threads = per_block // tiling
        builder = KernelBuilder(
            f"sad_p{per_block}_t{tiling}",
            block_dim=Dim3(threads),
            grid_dim=Dim3(self.positions // per_block, self.num_macroblocks),
        )
        cur = builder.param_ptr("cur", DataType.S32, space=MemorySpace.TEXTURE)
        ref = builder.param_ptr("ref", DataType.S32, space=MemorySpace.TEXTURE)
        out = builder.param_ptr("sad", DataType.S32)

        block_x = builder.rem(CTAID_Y, self.blocks_x)
        block_y = builder.div(CTAID_Y, self.blocks_x)
        cur_x = builder.mul(block_x, BLOCK_EDGE)
        cur_y = builder.mul(block_y, BLOCK_EDGE)
        position_base = builder.mad(CTAID_X, per_block, TID_X)
        out_base = builder.mad(CTAID_Y, self.positions, position_base)

        with builder.loop(0, tiling, label="search") as r:
            position = builder.mad(r, threads, position_base)
            delta_y = builder.sub(builder.div(position, search), half)
            delta_x = builder.sub(builder.rem(position, search), half)
            ref_x = builder.add(cur_x, delta_x)
            ref_y = builder.add(cur_y, delta_y)
            total = builder.mov(0, dtype=DataType.S32)
            with builder.loop(0, BLOCK_EDGE, label="rows") as i:
                cur_row = builder.mul(builder.add(cur_y, i), width)
                ref_row = builder.mul(builder.add(ref_y, i), width)
                cur_row_base = builder.add(cur_row, cur_x)
                ref_row_base = builder.add(ref_row, ref_x)
                with builder.loop(0, BLOCK_EDGE, label="cols") as j:
                    cur_idx = builder.add(cur_row_base, j)
                    ref_idx = builder.add(ref_row_base, j)
                    cur_px = builder.ld(cur, cur_idx)
                    ref_px = builder.ld(ref, ref_idx)
                    diff = builder.sub(cur_px, ref_px)
                    builder.add(total, builder.abs(diff), dest=total)
            store_idx = builder.mad(r, threads, out_base)
            builder.st(out, store_idx, total)
        return builder.finish()

    # ------------------------------------------------------------------

    def test_instance(self) -> "SumOfAbsoluteDifferences":
        return SumOfAbsoluteDifferences(width=32, height=16, search_width=8)

    def make_inputs(self, rng: np.random.Generator) -> Tuple[Arrays, Scalars]:
        pixels = self.width * self.height
        return (
            {
                "cur": rng.integers(0, 256, pixels).astype(np.int32),
                "ref": rng.integers(0, 256, pixels).astype(np.int32),
                "sad": np.zeros(self.num_macroblocks * self.positions,
                                dtype=np.int32),
            },
            {},
        )

    def reference(self, arrays: Arrays, scalars: Scalars) -> Arrays:
        width, height, search = self.width, self.height, self.search_width
        half = search // 2
        cur = arrays["cur"]
        ref = arrays["ref"]
        limit = width * height - 1

        positions = np.arange(self.positions)
        delta_y = positions // search - half
        delta_x = positions % search - half
        i = np.arange(BLOCK_EDGE)
        j = np.arange(BLOCK_EDGE)

        result = np.zeros((self.num_macroblocks, self.positions), dtype=np.int64)
        for macroblock in range(self.num_macroblocks):
            block_y, block_x = divmod(macroblock, self.blocks_x)
            cur_y, cur_x = block_y * BLOCK_EDGE, block_x * BLOCK_EDGE
            cur_idx = ((cur_y + i)[:, None] * width + cur_x + j[None, :])
            cur_block = cur[np.clip(cur_idx, 0, limit)]
            # Flat reference index is clamped exactly like the texture
            # model in the interpreter/hardware.
            ref_idx = (
                (cur_y + delta_y[:, None, None] + i[None, :, None]) * width
                + cur_x + delta_x[:, None, None] + j[None, None, :]
            )
            ref_block = ref[np.clip(ref_idx, 0, limit)]
            result[macroblock] = np.abs(
                cur_block[None].astype(np.int64) - ref_block
            ).sum(axis=(1, 2))
        return {"sad": result.astype(np.int32).ravel()}

    def work_operations(self) -> float:
        pixels = BLOCK_EDGE * BLOCK_EDGE
        return 3.0 * pixels * self.positions * self.num_macroblocks

    def default_configuration(self) -> Configuration:
        return Configuration({
            "positions_per_block": 256, "tiling": 4,
            "unroll_search": 1, "unroll_rows": 1, "unroll_cols": 1,
        })
