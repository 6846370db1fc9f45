"""IR-to-IR optimization passes (paper Section 3.1)."""

from repro.transforms.constfold import constant_fold, constant_fold_changed
from repro.transforms.cse import (
    eliminate_common_subexpressions,
    eliminate_common_subexpressions_changed,
)
from repro.transforms.dce import eliminate_dead_code, eliminate_dead_code_changed
from repro.transforms.licm import (
    hoist_loop_invariants,
    hoist_loop_invariants_changed,
)
from repro.transforms.pipeline import standard_cleanup
from repro.transforms.prefetch import PrefetchError, prefetch_global_loads
from repro.transforms.schedule import schedule_loads_early
from repro.transforms.strength import reduce_strength
from repro.transforms.rewrite import (
    FreshNames,
    Pass,
    apply_passes,
    clone_body,
    clone_kernel,
    collect_defs,
    collect_uses,
    rewrite_instruction,
    substitute_value,
)
from repro.transforms.spill import SpillError, choose_spill_candidates, spill_registers
from repro.transforms.unroll import COMPLETE, UnrollError, UnrollFactor, unroll

__all__ = [
    "COMPLETE",
    "FreshNames",
    "Pass",
    "PrefetchError",
    "SpillError",
    "UnrollError",
    "UnrollFactor",
    "apply_passes",
    "choose_spill_candidates",
    "clone_body",
    "clone_kernel",
    "collect_defs",
    "collect_uses",
    "constant_fold",
    "constant_fold_changed",
    "eliminate_common_subexpressions",
    "eliminate_common_subexpressions_changed",
    "eliminate_dead_code",
    "eliminate_dead_code_changed",
    "hoist_loop_invariants",
    "hoist_loop_invariants_changed",
    "prefetch_global_loads",
    "reduce_strength",
    "schedule_loads_early",
    "rewrite_instruction",
    "spill_registers",
    "standard_cleanup",
    "substitute_value",
    "unroll",
]
