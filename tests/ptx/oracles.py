"""Test-only oracles for PTX analysis.

``count_regions_reference`` is the straightforward ``Regions``
computation that :func:`repro.ptx.analysis.count_regions` replaced: it
feeds the fully expanded dynamic stream through the region state
machine one instruction at a time.  The loop-compressed production
version is differentially tested against it
(tests/ptx/test_regions_fast.py) and timed against it in
benchmarks/test_bench_static_pipeline.py.
"""

from __future__ import annotations

from repro.ir.kernel import Kernel
from repro.ptx.analysis import (
    _RegionCounter,
    expand_dynamic,
    kernel_has_longer_latency_than_sfu,
)


def count_regions_reference(kernel: Kernel) -> int:
    """The straightforward ``Regions`` computation: feed the fully
    expanded dynamic stream through the state machine, one instruction
    at a time.  Kept as the differential-testing oracle (and the
    reference pipeline of the static benchmark) for
    :func:`count_regions`."""
    counter = _RegionCounter(sfu_blocks=not kernel_has_longer_latency_than_sfu(kernel))
    for op in expand_dynamic(kernel):
        counter.feed(op)
    return counter.regions
