"""Standard pass orderings.

``standard_cleanup`` is what the application generators run after the
structural transformations (tiling variants, unrolling, prefetching):
fold constants, share subexpressions, hoist invariants, fold again
(hoisting exposes folds), and sweep dead code — iterated to a fixpoint
so the resulting PTX is stable regardless of how many rewrites ran.

Convergence is *change-driven*: each pass reports whether it changed
the kernel (an exact structural fact — unchanged passes hand back the
same object).  Every pass is a deterministic function of its input
kernel, so a pass known to hand back the current kernel unchanged
would do so again: ``standard_cleanup`` skips it, and stops as soon
as every distinct pass is certified that way.  A pass is certified by
handing back the current kernel unchanged, or by the *pass algebra*:

* constant folding, CSE and LICM each return a fixpoint of
  themselves when they change the kernel, so their own change
  certifies them (and resets the other passes' certificates: a fold
  can leave dead code or equal expressions behind, and hoisting
  exposes folds);
* dead-code elimination runs to its own internal fixpoint and deletes
  only what no other pass's decisions depend on, so its change
  certifies itself and keeps every certificate held before it.

docs/compile_pipeline.md ("Pass algebra") gives the argument for each
property; tests/transforms/test_pass_algebra.py checks them.  Skipped
applications are identities, so the kernel is exactly the one the
plain round-by-round loop (stop on the first round in which no pass
changed anything, at most ``_MAX_ROUNDS`` rounds) returns.

Each kernel object the driver hands between passes gets one
:class:`~repro.transforms.rewrite.DefUse` summary (def counts, the
registers each loop defines, read counts; each built on first read),
and every pass applied to that object reads it instead of walking the
kernel again.

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
from repro.transforms.rewrite import DefUse

_MAX_ROUNDS = 10

#: one cleanup round, in order: each pass takes ``(kernel, summary)``
#: and returns ``(kernel, changed)``, paired with whether a changed
#: output is already that pass's own fixpoint and whether a change
#: keeps the certificates the other passes held before it
_ROUND = (
    (constant_fold_changed, True, False),
    (eliminate_common_subexpressions_changed, True, False),
    (hoist_loop_invariants_changed, True, False),
    (constant_fold_changed, True, False),
    (eliminate_dead_code_changed, True, True),
)


def standard_cleanup(kernel: Kernel) -> Kernel:
    """Run the scalar optimization pipeline to a change-driven fixpoint.

    Produces the same kernel as the PTX-string-comparison oracle in
    tests/transforms/oracles.py (pinned by a differential test) without
    emitting a single line of PTX, and without re-running a pass on a
    kernel that pass is known to leave alone (see the module
    docstring).
    """
    distinct = {run_pass for run_pass, _, _ in _ROUND}
    certified = set()
    summary = DefUse(kernel.body)
    for _ in range(_MAX_ROUNDS):
        for run_pass, own_fixpoint, keeps_others in _ROUND:
            if run_pass in certified:
                continue
            kernel, changed = run_pass(kernel, summary)
            if changed:
                summary = DefUse(kernel.body)
                if not keeps_others:
                    certified = set()
                if own_fixpoint:
                    certified.add(run_pass)
                else:
                    certified.discard(run_pass)
            else:
                certified.add(run_pass)
            if len(certified) == len(distinct):
                return kernel
    return kernel
