"""Hypothesis strategies for structured kernels.

:func:`structured_kernels` draws a small program plan and builds it
with :class:`~repro.ir.KernelBuilder`.  The plans cover the shapes the
applications' transforms produce, so the static analyses and the
transforms can be checked on kernels no application happens to
generate:

* nested counted loops, with immediate bounds and with register bounds
  carrying a trip annotation;
* loop-carried accumulators, and copies made inside a loop and read
  after it: a multi-def copy initialized before the loop, or (the
  ``escape`` role) a single-def ``mov`` whose only definition is
  inside a loop of at least one trip;
* ``If`` statements with ``taken_fraction`` 0, 0.3 or 1, with and
  without an else side, guarded by a ``setp``;
* barriers around shared-memory store/load phases (outside branches:
  a barrier under a divergent ``If`` would hang a real block);
* global loads and stores, coalesced and not; texture and constant
  loads; local stores and loads; SFU ops;
* add-immediate address chains read inside an ``If`` and again after
  it, the register under one of them rewritten inside the ``If``;
* add-immediate address arithmetic feeding shared-memory indices, at
  top level and from a loop counter (the shape matmul's unrolled inner
  product folds into constant offsets).

Every kernel passes :func:`repro.ir.validate`: registers are defined
lexically before they are read.  A value made inside a branch is only
read inside it; a value made inside a loop is read after the loop
only when the loop runs at least once (the ``escape`` copy) or when
the register was initialized before the loop.  Indices stay inside
the declared arrays (``tid.x`` or ``2 * tid.x`` into arrays of
``2 * BLOCK`` elements, address chains at most ``tid.x + 15``, shared
and local indices within bounds; every shared read of another
thread's element sits between barriers outside any branch) and SFU
operands are at least 1, so the kernels also run in the functional
interpreters; no two threads of a block write one element, so the two
interpreters agree (to their SFU rounding; see
tests/ir/test_kernels.py).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.arch.memory import MemorySpace
from repro.ir import CmpOp, DataType, Dim3, KernelBuilder
from repro.ir.builder import TID_X

F32 = DataType.F32
S32 = DataType.S32

#: threads per block of every generated kernel (one warp)
BLOCK = 32
#: elements per global, texture and constant array
ARRAY = 2 * BLOCK
#: elements of the local scratch array
LOCAL = 4

TRIPS = (0, 1, 2, 3, 4, 7)
TAKEN_FRACTIONS = (0.0, 0.3, 1.0)

_LEAVES = ("alu", "alu", "sfu", "gload", "gstore", "texture", "constant",
           "local", "shared_phase", "chain_if", "shared_index")


def _plan(depth: int):
    """A strategy for a list of statement plans nested ``depth`` deep."""
    leaf = st.tuples(
        st.sampled_from(_LEAVES),
        st.integers(0, 7),          # operand choice
        st.booleans(),              # coalesced / variant flag
    )
    if depth == 0:
        return st.lists(leaf, min_size=1, max_size=5)
    inner = _plan(depth - 1)
    loop = st.tuples(
        st.just("loop"),
        st.sampled_from(TRIPS),
        st.sampled_from(("static", "register")),
        st.sampled_from(("plain", "accumulate", "copy", "escape",
                         "shared_index")),
        inner,
    )
    branch = st.tuples(
        st.just("if"),
        st.sampled_from(TAKEN_FRACTIONS),
        inner,
        st.one_of(st.just([]), inner),
    )
    return st.lists(st.one_of(leaf, loop, branch), min_size=1, max_size=5)


class _Materializer:
    """Turns a plan into builder calls."""

    def __init__(self, builder: KernelBuilder) -> None:
        b = self.b = builder
        self.src = b.param_ptr("src", F32)
        self.dst = b.param_ptr("dst", F32)
        #: uncoalesced stores get their own array, so no two threads
        #: ever write one element
        self.dst_wide = b.param_ptr("dst_wide", F32)
        self.tex = b.param_ptr("tex", F32, space=MemorySpace.TEXTURE)
        self.const = b.param_ptr("coef", F32, space=MemorySpace.CONSTANT)
        self.tile = b.shared("tile", F32, (BLOCK,))
        self.scratch = b.local("scratch", F32, LOCAL)
        self.wide = b.mul(TID_X, 2)
        self.shifted = b.rem(b.add(TID_X, 1), BLOCK)
        #: base of shared indices that add up to BLOCK // 2 - 1 more
        self.half = b.rem(TID_X, BLOCK // 2)

    def body(self, plans, values, in_branch: bool = False) -> list:
        """Emit ``plans``; returns the values readable after them."""
        values = list(values)
        for plan in plans:
            kind = plan[0]
            if kind == "loop":
                self.loop(plan, values, in_branch)
            elif kind == "if":
                self.branch(plan, values)
            else:
                values.append(self.leaf(plan, values, in_branch))
        return values

    def pick(self, values, choice):
        return values[choice % len(values)]

    def leaf(self, plan, values, in_branch: bool):
        b = self.b
        kind, choice, flag = plan
        a = self.pick(values, choice)
        if kind == "alu":
            other = self.pick(values, choice // 2)
            op = choice % 4
            if op == 0:
                return b.add(a, other)
            if op == 1:
                return b.mul(a, 0.5)
            if op == 2:
                return b.mad(a, other, 1.0)
            return b.max(a, other)
        if kind == "sfu":
            return (b.rsqrt, b.sin, b.cos, b.rcp)[choice % 4](
                b.add(b.abs(a), 1.0)
            )
        if kind == "gload":
            index = TID_X if flag else self.wide
            return b.ld(self.src, index, coalesced=flag)
        if kind == "gstore":
            if flag:
                b.st(self.dst, TID_X, a)
            else:
                b.st(self.dst_wide, self.wide, a, coalesced=False)
            return a
        if kind == "texture":
            return b.ld(self.tex, self.wide if flag else TID_X)
        if kind == "constant":
            return b.ld(self.const, choice % ARRAY)
        if kind == "local":
            b.st(self.scratch, choice % LOCAL, a)
            return b.ld(self.scratch, (choice + int(flag)) % LOCAL)
        if kind == "chain_if":
            return self.chain_if(choice, flag)
        # shared_phase and shared_index: store, barrier, load a
        # neighbour, barrier; in a branch, a thread reads back its own
        # element instead.
        b.st(self.tile, TID_X, a)
        if in_branch:
            return b.ld(self.tile, TID_X)
        b.bar()
        if kind == "shared_index":
            index = b.add(self.half, choice % 8)
            loaded = b.ld(self.tile, index)
            if flag:
                further = b.add(index, BLOCK // 2 - 8)
                loaded = b.add(loaded, b.ld(self.tile, further))
        else:
            loaded = b.ld(self.tile, self.shifted if flag else TID_X)
        b.bar()
        return loaded

    def chain_if(self, choice, flag):
        """Address chains read inside an ``If`` and after it; with
        ``flag``, the register under one chain is rewritten in between
        its two reads inside the ``If``."""
        b = self.b
        base = b.mov(TID_X, dtype=S32)
        shifted = b.add(base, choice % 8)
        steady = b.add(TID_X, 8 + choice)
        pred = b.setp(CmpOp.LT, TID_X, BLOCK // 2)
        with b.if_(pred, taken_fraction=TAKEN_FRACTIONS[choice % 3]):
            b.st(self.dst, TID_X, b.ld(self.src, shifted))
            if flag:
                b.add(base, 1, dest=base)
            b.st(self.dst, TID_X, b.ld(self.src, shifted))
        after = b.add(b.ld(self.src, shifted), b.ld(self.src, steady))
        return b.add(after, b.ld(self.src, base))

    def loop(self, plan, values, in_branch: bool) -> None:
        b = self.b
        _, trips, bounds, role, inner = plan
        if role == "escape":
            # The copy's only definition is inside the loop, so the
            # loop must run for the read after it to see a value.
            trips = max(trips, 1)
        if bounds == "static":
            header = b.loop(0, trips)
        else:
            stop = b.mov(trips, dtype=S32)
            header = b.loop(0, stop, trip_count=trips)
        if role == "plain":
            with header:
                self.body(inner, values, in_branch)
            return
        if role == "shared_index" and not in_branch:
            self.shared_scan(header, inner, values)
            return
        if role == "escape":
            # A single-def copy: folding binds it, drops it, and must
            # re-emit it at the loop body's end for the read below.
            with header:
                copy = b.mov(self.body(inner, values, in_branch)[-1])
            b.st(self.dst, TID_X, copy)
            values.append(copy)
            return
        carried = b.mov(0.0)
        with header:
            last = self.body(inner, values + [carried], in_branch)[-1]
            if role == "accumulate":
                b.add(carried, self.pick(values, len(inner)), dest=carried)
            else:
                b.mov(last, dest=carried)
        # The carried value (an accumulator, or a copy made inside the
        # loop) is read after it.
        b.st(self.dst, TID_X, carried)
        values.append(carried)

    def shared_scan(self, header, inner, values) -> None:
        """Sum ``tile[half + i]`` over the loop's counter ``i``: the
        index is counter-fed address arithmetic, which unrolling turns
        into add-immediate chains that fold into constant offsets."""
        b = self.b
        b.st(self.tile, TID_X, self.pick(values, len(inner)))
        b.bar()
        carried = b.mov(0.0)
        with header as i:
            self.body(inner, values + [carried])
            b.bar()
            loaded = b.ld(self.tile, b.add(self.half, i))
            b.add(carried, loaded, dest=carried)
            b.bar()
        b.st(self.dst, TID_X, carried)
        values.append(carried)

    def branch(self, plan, values) -> None:
        b = self.b
        _, fraction, then_plans, else_plans = plan
        pred = b.setp(CmpOp.LT, TID_X, BLOCK // 2)
        with b.if_(pred, taken_fraction=fraction) as handle:
            self.body(then_plans, values, in_branch=True)
        if else_plans:
            with handle.orelse():
                self.body(else_plans, values, in_branch=True)


@st.composite
def structured_kernels(draw, max_depth: int = 3):
    """A validated kernel built from a random plan (see module doc)."""
    depth = draw(st.integers(0, max_depth))
    plans = draw(_plan(depth))
    builder = KernelBuilder("generated", block_dim=Dim3(BLOCK), grid_dim=Dim3(2))
    make = _Materializer(builder)
    seed = builder.ld(make.src, TID_X)
    make.body(plans, [seed])
    return builder.finish()
