"""The structured-kernel generator keeps its contract: every kernel
validates and runs in both functional interpreters, and they agree
(no two threads of a block write one element).  They agree to the
tolerance tests/apps/test_vectorized_correctness.py uses, not bit for
bit: the scalar engine rounds an SFU result once from double, the
vectorized one computes it in f32."""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.interp import launch, launch_vectorized
from repro.ir import validate
from tests.ir.kernels import ARRAY, structured_kernels

ARRAYS = ("src", "dst", "dst_wide", "tex", "coef")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(structured_kernels())
def test_generated_kernels_run_alike_in_both_interpreters(kernel):
    validate(kernel)
    inputs = np.random.default_rng(0).random((len(ARRAYS), ARRAY))
    scalar = {name: row.astype(np.float32) for name, row in zip(ARRAYS, inputs)}
    vectorized = {name: array.copy() for name, array in scalar.items()}
    launch(kernel, scalar, {})
    launch_vectorized(kernel, vectorized, {})
    for name in ("dst", "dst_wide"):
        np.testing.assert_allclose(
            vectorized[name], scalar[name], rtol=2e-3, atol=2e-3
        )
