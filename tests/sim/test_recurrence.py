"""Recurrence skip: exact replay that jumps over recurring SM states.

:class:`repro.sim.sm._Recurrence` advances the replay by whole loop
periods once the SM state recurs shifted in time.  The jump must be
invisible: every result field equals the plain event loop of
:func:`~tests.sim.oracles.simulate_sm_reference`, bit for bit.  The
traces here are built so that jumps actually happen — long repeated
records, several resident blocks, several waves — which the short
repeats of ``test_differential.py`` never reach.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import WarpTrace, simulate_sm
from repro.sim.config import DEFAULT_SIM_CONFIG
from repro.sim.sm import compile_trace
from repro.sim.trace import BARRIER, COMPUTE, LOAD, SFU, STORE, USE, build_trace
from tests.sim.oracles import simulate_sm_reference

FIELDS = (
    "cycles",
    "blocks_completed",
    "issue_busy_cycles",
    "dram_bytes",
    "dram_busy_cycles",
)

#: modelled events per example (warp events x warps x blocks), so the
#: reference loop stays around a second at most
EVENT_BUDGET = 60_000


def assert_identical(optimized, reference):
    for field in FIELDS:
        assert getattr(optimized, field) == getattr(reference, field), field


@st.composite
def bodies(draw, slots, max_events=8):
    """A loop body (or straight-line record) of mixed events.

    ``slots`` is the trace-wide list of scoreboard slots issued so far;
    a USE may read any of them, so loads can resolve in a later record
    (a preamble prefetch) or a later iteration.
    """
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_events))):
        choices = ["compute", "load", "store", "sfu", "barrier"]
        if slots:
            choices.append("use")
        kind = draw(st.sampled_from(choices))
        if kind == "compute":
            events.append((COMPUTE, draw(st.integers(1, 20)), 0))
        elif kind == "load":
            bytes_ = draw(st.sampled_from([0.0, 128.0, 1024.0]))
            latency = 120.0 if bytes_ == 0.0 else 250.0
            slot = draw(st.sampled_from(slots + [len(slots)]))
            if slot == len(slots):
                slots.append(slot)
            events.append((LOAD, slot, (bytes_, latency)))
        elif kind == "use":
            events.append((USE, draw(st.sampled_from(slots)), 0))
        elif kind == "store":
            events.append((STORE, 0, draw(st.sampled_from([128.0, 512.0]))))
        elif kind == "sfu":
            slot = draw(st.sampled_from(slots + [len(slots)]))
            if slot == len(slots):
                slots.append(slot)
            events.append((SFU, slot, 0))
        else:
            events.append((BARRIER, 0, 0))
    return tuple(events)


@st.composite
def looped_runs(draw):
    """A loop-compressed trace with two or more long repeated records,
    plus the launch shape to replay it at."""
    warps = draw(st.integers(min_value=1, max_value=4))
    resident = draw(st.integers(min_value=1, max_value=8))
    waves = draw(st.integers(min_value=2, max_value=3))
    per_warp = EVENT_BUDGET // (warps * resident * waves)
    extra = draw(st.lists(st.sampled_from(["line", "loop"]), max_size=3))
    kinds = draw(st.permutations(["loop", "loop"] + extra))
    slots = []
    segments = []
    program = []
    for kind in kinds:
        repeat = 1
        if kind == "loop":
            repeat = draw(st.integers(min_value=3, max_value=300))
        program.append((len(segments), repeat))
        segments.append(draw(bodies(slots)))
    # Fit the budget by trimming repeat counts, never below 3.
    size = sum(len(segments[i]) * r for i, r in program)
    if size > per_warp:
        scale = per_warp / size
        program = [(i, r if r == 1 else max(3, int(r * scale)))
                   for i, r in program]
    flat = [e for i, r in program for e in segments[i] * r]
    trace = WarpTrace(
        segments=tuple(segments),
        program=tuple(program),
        issue_slots=sum(e[1] for e in flat if e[0] == COMPUTE),
        dram_bytes=(sum(e[2][0] for e in flat if e[0] == LOAD)
                    + sum(e[2] for e in flat if e[0] == STORE)),
    )
    return trace, warps, resident, resident * waves


def replay_both(trace, warps, resident, blocks, config=DEFAULT_SIM_CONFIG):
    kwargs = dict(warps_per_block=warps, blocks_resident=resident,
                  total_blocks=blocks, config=config)
    return (simulate_sm(trace, **kwargs),
            simulate_sm_reference(trace, **kwargs))


def check(run):
    trace, warps, resident, blocks = run
    optimized, reference = replay_both(trace, warps, resident, blocks)
    assert_identical(optimized, reference)
    assert 0 <= optimized.events_skipped <= optimized.events_replayed


class TestLoopedTraces:
    @pytest.mark.fast
    @settings(max_examples=12, deadline=None)
    @given(looped_runs())
    def test_identical_fast(self, run):
        check(run)

    @settings(max_examples=80, deadline=None)
    @given(looped_runs())
    def test_identical(self, run):
        check(run)


def pipelined_trace(repeats=200):
    """A prefetching loop (load, compute, use, barrier, store) after a
    preamble: the shape of a tiled kernel's main loop."""
    preamble = ((LOAD, 0, (128.0, 250.0)), (COMPUTE, 3, 0))
    body = (
        (LOAD, 1, (128.0, 250.0)),
        (COMPUTE, 6, 0),
        (USE, 0, 0),
        (SFU, 2, 0),
        (COMPUTE, 2, 0),
        (USE, 2, 0),
        (BARRIER, 0, 0),
        (LOAD, 0, (1024.0, 250.0)),
        (COMPUTE, 4, 0),
        (USE, 1, 0),
        (STORE, 0, 128.0),
    )
    tail = ((USE, 0, 0), (STORE, 0, 512.0))
    flat = list(preamble) + list(body) * repeats + list(tail)
    return WarpTrace(
        segments=(preamble, body, tail),
        program=((0, 1), (1, repeats), (2, 1)),
        issue_slots=sum(e[1] for e in flat if e[0] == COMPUTE),
        dram_bytes=(sum(e[2][0] for e in flat if e[0] == LOAD)
                    + sum(e[2] for e in flat if e[0] == STORE)),
    )


@pytest.mark.fast
class TestJumps:
    def test_pipelined_loop_jumps_and_matches(self):
        optimized, reference = replay_both(pipelined_trace(), 4, 3, 6)
        assert_identical(optimized, reference)
        assert optimized.events_skipped > optimized.events_replayed // 2

    def test_non_dyadic_config_never_jumps(self):
        """bytes / 12.0 is not a multiple of 1/16: the trace compiles
        with no loop ranges and replays every event."""
        config = dataclasses.replace(DEFAULT_SIM_CONFIG,
                                     bandwidth_burst_factor=3.0)
        assert compile_trace(pipelined_trace(), config).loops == ()
        optimized, reference = replay_both(pipelined_trace(), 4, 3, 6,
                                           config=config)
        assert_identical(optimized, reference)
        assert optimized.events_skipped == 0

    def test_magnitude_guard_refuses_jump(self):
        """A latency of 2**43 cycles is a fine constant, but a few
        iterations push times past 2**44, where a shifted sum could
        round: the runtime guard replays them instead."""
        body = ((LOAD, 0, (128.0, 2.0 ** 43)), (COMPUTE, 2, 0), (USE, 0, 0))
        trace = WarpTrace(segments=(body,), program=((0, 50),),
                          issue_slots=100, dram_bytes=6400.0)
        assert compile_trace(trace, DEFAULT_SIM_CONFIG).loops
        optimized, reference = replay_both(trace, 2, 2, 4)
        assert_identical(optimized, reference)
        assert optimized.events_skipped == 0


class TestAppKernels:
    """Real traces jump, and still match the reference."""

    @pytest.mark.parametrize("name", ["matmul", "cp", "mri-fhd"])
    def test_events_skipped(self, name):
        from repro.apps import CoulombicPotential, MatMul, MriFhd

        app = {"matmul": MatMul, "cp": CoulombicPotential,
               "mri-fhd": MriFhd}[name]().test_instance()
        skipped = 0
        for config in list(app.space())[::5][:6]:
            try:
                resources = app.evaluate(config).resources
            except Exception:
                continue
            kernel = app.kernel(config)
            sim_config = app.sim_config(config)
            occupancy = resources.occupancy(sim_config.device)
            trace = build_trace(kernel, sim_config)
            optimized, reference = replay_both(
                trace, occupancy.warps_per_block, occupancy.blocks_per_sm,
                occupancy.blocks_per_sm * 2, config=sim_config)
            assert_identical(optimized, reference)
            skipped += optimized.events_skipped
        assert skipped > 0
