"""Standard pass orderings.

``standard_cleanup`` is what the application generators run after the
structural transformations (tiling variants, unrolling, prefetching):
fold constants, share subexpressions, hoist invariants, fold again
(hoisting exposes folds), and sweep dead code — iterated to a fixpoint
so the resulting PTX is stable regardless of how many rewrites ran.

Convergence is *change-driven*: each pass reports whether it changed
the kernel (an exact structural fact — unchanged passes hand back the
same object).  Every pass is a deterministic function of its input
kernel, so a pass that has handed back the current kernel unchanged
would do so again: ``standard_cleanup`` skips it until some pass
changes the kernel, and stops as soon as every distinct pass has
certified the current kernel that way.  Dead-code elimination runs to its own
internal fixpoint, so its output certifies itself.  Skipped
applications are identities, so the kernel is exactly the one the
plain round-by-round loop (stop on the first round in which no pass
changed anything, at most ``_MAX_ROUNDS`` rounds) returns.

The original detector re-emitted the full PTX text after every round
and compared strings; that emission was pure overhead on the
convergence path.  It lives on only as a test oracle,
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

#: one cleanup round, in order: each pass returns ``(kernel, changed)``,
#: paired with whether a changed output is already that pass's fixpoint
_ROUND = (
    (constant_fold_changed, False),
    (eliminate_common_subexpressions_changed, False),
    (hoist_loop_invariants_changed, False),
    (constant_fold_changed, False),
    (eliminate_dead_code_changed, True),
)


def standard_cleanup(kernel: Kernel) -> Kernel:
    """Run the scalar optimization pipeline to a change-driven fixpoint.

    Produces the same kernel as the PTX-string-comparison oracle in
    tests/transforms/oracles.py (pinned by a differential test) without
    emitting a single line of PTX, and without re-running a pass on a
    kernel that pass has already certified (see the module docstring).
    """
    distinct = {run_pass for run_pass, _ in _ROUND}
    certified = set()
    for _ in range(_MAX_ROUNDS):
        for run_pass, own_fixpoint in _ROUND:
            if run_pass in certified:
                continue
            kernel, changed = run_pass(kernel)
            if changed:
                certified = {run_pass} if own_fixpoint else set()
            else:
                certified.add(run_pass)
                if len(certified) == len(distinct):
                    return kernel
    return kernel
