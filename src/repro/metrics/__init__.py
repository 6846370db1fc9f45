"""The paper's performance metrics (Section 4, Equations 1-2) and the
future-work extensions it names (coalescing-aware metrics, a more
detailed cost model)."""

from repro.metrics.analytical import AnalyticalEstimate, analytical_estimate
from repro.metrics.bandwidth import BandwidthEstimate, estimate_bandwidth
from repro.metrics.coalescing import (
    AdjustedMetrics,
    adjusted_point,
    coalescing_adjusted,
)
from repro.metrics.efficiency import efficiency
from repro.metrics.model import MetricReport, evaluate_kernel
from repro.metrics.utilization import utilization

__all__ = [
    "AdjustedMetrics",
    "AnalyticalEstimate",
    "BandwidthEstimate",
    "MetricReport",
    "adjusted_point",
    "analytical_estimate",
    "coalescing_adjusted",
    "efficiency",
    "estimate_bandwidth",
    "evaluate_kernel",
    "utilization",
]
