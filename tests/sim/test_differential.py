"""Differential tests: optimized SM replay versus the reference loop.

The optimized engine (:mod:`repro.sim.sm`) earns its speed from a
stack of rewrites — loop-compressed segment walking, a FIFO/heap
scheduler split, inlined DRAM arithmetic, recurrence jumps.  Each rewrite preserved semantics by construction;
these tests enforce it empirically against the deliberately simple
:func:`~tests.sim.oracles.simulate_sm_reference` oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import WarpTrace, simulate_sm
from repro.sim.config import DEFAULT_SIM_CONFIG
from tests.sim.oracles import simulate_sm_reference
from repro.sim.trace import BARRIER, COMPUTE, LOAD, SFU, STORE, USE, build_trace

CORE_FIELDS = (
    "cycles",
    "blocks_completed",
    "issue_busy_cycles",
    "dram_bytes",
    "dram_busy_cycles",
)


def assert_identical(optimized, reference):
    for field in CORE_FIELDS:
        assert getattr(optimized, field) == getattr(reference, field), field


@st.composite
def event_lists(draw, allow_barriers=True):
    """A random but well-formed warp event stream (new encoding)."""
    events = []
    pending = []
    next_slot = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        choices = ["compute", "load", "store", "sfu"]
        if allow_barriers:
            choices.append("barrier")
        if pending:
            choices.append("use")
        kind = draw(st.sampled_from(choices))
        if kind == "compute":
            events.append((COMPUTE, draw(st.integers(1, 20)), 0))
        elif kind == "load":
            # 1024-byte loads model uncoalesced traffic (128 x 8).
            bytes_ = draw(st.sampled_from([0.0, 128.0, 1024.0]))
            latency = 120.0 if bytes_ == 0.0 else 250.0
            events.append((LOAD, next_slot, (bytes_, latency)))
            pending.append(next_slot)
            next_slot += 1
        elif kind == "use":
            slot = draw(st.sampled_from(pending))
            pending.remove(slot)
            events.append((USE, slot, 0))
        elif kind == "store":
            events.append((STORE, 0, draw(st.sampled_from([128.0, 512.0]))))
        elif kind == "sfu":
            events.append((SFU, next_slot, 0))
            pending.append(next_slot)
            next_slot += 1
        else:
            events.append((BARRIER, 0, 0))
    return events


def trace_from(events):
    issue_slots = sum(e[1] for e in events if e[0] == COMPUTE)
    dram = sum(e[2][0] for e in events if e[0] == LOAD)
    dram += sum(e[2] for e in events if e[0] == STORE)
    return WarpTrace.from_events(events, issue_slots=issue_slots,
                                 dram_bytes=dram)


class TestRandomTraces:
    @settings(max_examples=120, deadline=None)
    @given(
        event_lists(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=8),
    )
    def test_exact_mode_identical(self, events, warps, resident, blocks):
        trace = trace_from(events)
        optimized = simulate_sm(trace, warps_per_block=warps,
                                blocks_resident=resident, total_blocks=blocks,
                                config=DEFAULT_SIM_CONFIG)
        reference = simulate_sm_reference(trace, warps_per_block=warps,
                                          blocks_resident=resident,
                                          total_blocks=blocks,
                                          config=DEFAULT_SIM_CONFIG)
        assert_identical(optimized, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        event_lists(allow_barriers=False),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
    )
    def test_compressed_repeats_identical(self, body, repeats, warps):
        """Segment repetition must replay exactly like the flat stream.

        The compressed trace walks one stored copy of ``body`` with a
        repeat count; the reference consumes the fully materialized
        stream.  Scoreboard slots carry across iterations exactly as
        the flat replay's do because slot ids are stable.
        """
        flat = body * repeats
        issue_slots = sum(e[1] for e in flat if e[0] == COMPUTE)
        dram = sum(e[2][0] for e in flat if e[0] == LOAD)
        dram += sum(e[2] for e in flat if e[0] == STORE)
        compressed = WarpTrace(
            segments=(tuple(body),),
            program=((0, repeats),),
            issue_slots=issue_slots,
            dram_bytes=dram,
        )
        assert list(compressed.events) == flat
        optimized = simulate_sm(compressed, warps_per_block=warps,
                                blocks_resident=2, total_blocks=3,
                                config=DEFAULT_SIM_CONFIG)
        reference = simulate_sm_reference(compressed, warps_per_block=warps,
                                          blocks_resident=2, total_blocks=3,
                                          config=DEFAULT_SIM_CONFIG)
        assert_identical(optimized, reference)


class TestAppKernels:
    """Real compressed traces (loops, barriers, SFU, uncoalesced loads)."""

    def _check(self, app, configs):
        for config in configs:
            kernel = app.kernel(config)
            sim_config = app.sim_config(config)
            trace = build_trace(kernel, sim_config)
            resources = app.evaluate(config).resources
            occupancy = resources.occupancy(sim_config.device)
            blocks = occupancy.blocks_per_sm * 2
            optimized = simulate_sm(
                trace, warps_per_block=occupancy.warps_per_block,
                blocks_resident=occupancy.blocks_per_sm,
                total_blocks=blocks, config=sim_config)
            reference = simulate_sm_reference(
                trace, warps_per_block=occupancy.warps_per_block,
                blocks_resident=occupancy.blocks_per_sm,
                total_blocks=blocks, config=sim_config)
            assert_identical(optimized, reference)

    def test_matmul(self):
        from repro.apps.matmul import MatMul

        app = MatMul().test_instance()
        configs = [c for c in app.space()][::7][:8]
        self._check(app, configs)

    def test_mri_fhd(self):
        from repro.apps.mri_fhd import MriFhd

        app = MriFhd().test_instance()
        configs = [c for c in app.space()][::11][:6]
        self._check(app, configs)
