"""Test-only oracles for the transform pipeline.

``standard_cleanup_reference`` is the original fixpoint driver of
:func:`repro.transforms.pipeline.standard_cleanup`: it runs every pass
each round and detects convergence by comparing emitted PTX strings.
The production driver is change-driven and emits no PTX; it is
differentially tested against this oracle (tests/transforms/
test_pipeline.py) and timed against it in
benchmarks/test_bench_static_pipeline.py.
"""

from __future__ import annotations

from repro.ir.kernel import Kernel
from repro.ptx.emit import emit_ptx
from repro.transforms import (
    constant_fold,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    hoist_loop_invariants,
)
from repro.transforms.pipeline import _MAX_ROUNDS


def standard_cleanup_reference(kernel: Kernel) -> Kernel:
    """Run the cleanup round to a PTX-string fixpoint."""
    fingerprint = emit_ptx(kernel)
    for _ in range(_MAX_ROUNDS):
        kernel = constant_fold(kernel)
        kernel = eliminate_common_subexpressions(kernel)
        kernel = hoist_loop_invariants(kernel)
        kernel = constant_fold(kernel)
        kernel = eliminate_dead_code(kernel)
        new_fingerprint = emit_ptx(kernel)
        if new_fingerprint == fingerprint:
            return kernel
        fingerprint = new_fingerprint
    return kernel
