"""Standard pass orderings.

``standard_cleanup`` is what the application generators run after the
structural transformations (tiling variants, unrolling, prefetching):
fold constants, share subexpressions, hoist invariants, fold again
(hoisting exposes folds), and sweep dead code — iterated to a fixpoint
so the resulting PTX is stable regardless of how many rewrites ran.

Convergence is *change-driven*: each pass reports whether it changed
the kernel (an exact structural fact — unchanged passes hand back the
same object), and the loop stops on the first round in which no pass
changed anything.  The original detector re-emitted the full PTX text
after every round and compared strings; that emission was pure
overhead on the convergence path.  It lives on only as a test oracle,
``tests.transforms.oracles.standard_cleanup_reference``, which
tests/transforms/test_pipeline.py and the static-pipeline benchmark
compare this driver against.
"""

from __future__ import annotations

from repro.ir.kernel import Kernel
from repro.transforms.constfold import constant_fold_changed
from repro.transforms.cse import eliminate_common_subexpressions_changed
from repro.transforms.dce import eliminate_dead_code_changed
from repro.transforms.licm import hoist_loop_invariants_changed

_MAX_ROUNDS = 10

#: one cleanup round, in order; every entry returns ``(kernel, changed)``
_ROUND = (
    constant_fold_changed,
    eliminate_common_subexpressions_changed,
    hoist_loop_invariants_changed,
    constant_fold_changed,
    eliminate_dead_code_changed,
)


def standard_cleanup(kernel: Kernel) -> Kernel:
    """Run the scalar optimization pipeline to a change-driven fixpoint.

    Produces the same kernel as the PTX-string-comparison oracle in
    tests/transforms/oracles.py (pinned by a differential test) without
    emitting a single line of PTX: a round in which every pass reports
    "unchanged" started from a kernel the whole round maps to itself,
    which is exactly the reference loop's string-equality condition.
    """
    for _ in range(_MAX_ROUNDS):
        changed = False
        for run_pass in _ROUND:
            kernel, pass_changed = run_pass(kernel)
            changed = changed or pass_changed
        if not changed:
            return kernel
    return kernel
