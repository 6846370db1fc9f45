"""Shared fixtures and kernel-building helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# ``--hypothesis-profile=deep`` (the nightly run of tests/ir/test_view.py)
# draws far more examples than the default tier-1 budget.
settings.register_profile("deep", max_examples=2000, deadline=None)

from repro.ir import DataType, Dim3, KernelBuilder
from repro.ir.builder import CTAID_X, CTAID_Y, TID_X, TID_Y

#: test directories cheap enough for the CI smoke job (synthetic
#: spaces, no full-application sweeps) — everything inside is
#: automatically tagged with the ``fast`` marker
_FAST_DIRS = (
    os.path.join("tests", "tuning"),
    os.path.join("tests", "ptx"),
    os.path.join("tests", "arch"),
    os.path.join("tests", "ir"),
    os.path.join("tests", "obs"),
    os.path.join("tests", "store"),
    os.path.join("tests", "service"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        path = str(item.fspath)
        if any(directory in path for directory in _FAST_DIRS):
            item.add_marker(pytest.mark.fast)


def build_saxpy(block: int = 64, grid: int = 4) -> "Kernel":
    """y[i] = a*x[i] + y[i] — the smallest useful kernel."""
    builder = KernelBuilder("saxpy", block_dim=Dim3(block), grid_dim=Dim3(grid))
    x = builder.param_ptr("x", DataType.F32)
    y = builder.param_ptr("y", DataType.F32)
    a = builder.param_scalar("a", DataType.F32)
    index = builder.mad(CTAID_X, block, TID_X)
    x_val = builder.ld(x, index)
    y_val = builder.ld(y, index)
    builder.st(y, index, builder.mad(a, x_val, y_val))
    return builder.finish()


def build_tiled_matmul(n: int = 32, tile: int = 16) -> "Kernel":
    """The Figure 2(a) kernel at a test-friendly size."""
    builder = KernelBuilder(
        "mm_test", block_dim=Dim3(tile, tile), grid_dim=Dim3(n // tile, n // tile)
    )
    a = builder.param_ptr("A", DataType.F32)
    b = builder.param_ptr("B", DataType.F32)
    c = builder.param_ptr("C", DataType.F32)
    a_tile = builder.shared("As", DataType.F32, (tile, tile))
    b_tile = builder.shared("Bs", DataType.F32, (tile, tile))
    row = builder.mad(CTAID_Y, tile, TID_Y)
    index_a = builder.mad(row, n, TID_X)
    index_b = builder.mad(TID_Y, n, builder.mad(CTAID_X, tile, TID_X))
    index_c = builder.mad(row, n, builder.mad(CTAID_X, tile, TID_X))
    shared_idx = builder.mad(TID_Y, tile, TID_X)
    a_row = builder.mul(TID_Y, tile)
    acc = builder.mov(0.0)
    with builder.loop(0, n // tile, label="ktile"):
        a_val = builder.ld(a, index_a)
        b_val = builder.ld(b, index_b)
        builder.st(a_tile, shared_idx, a_val)
        builder.st(b_tile, shared_idx, b_val)
        builder.add(index_a, tile, dest=index_a)
        builder.add(index_b, tile * n, dest=index_b)
        builder.bar()
        with builder.loop(0, tile, label="inner") as i:
            a_elem = builder.ld(a_tile, builder.add(a_row, i))
            b_elem = builder.ld(b_tile, builder.mad(i, tile, TID_X))
            builder.mad(a_elem, b_elem, acc, dest=acc)
        builder.bar()
    builder.st(c, index_c, acc)
    return builder.finish()


def run_matmul_kernel(kernel, n: int, seed: int = 7):
    """Interpret a matmul kernel; returns (result, numpy reference)."""
    from repro.interp import launch

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = np.zeros(n * n, dtype=np.float32)
    launch(kernel, {"A": a.ravel().copy(), "B": b.ravel().copy(), "C": c})
    reference = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    return c.reshape(n, n), reference


@pytest.fixture
def saxpy_kernel():
    return build_saxpy()


@pytest.fixture
def matmul_kernel():
    return build_tiled_matmul()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
