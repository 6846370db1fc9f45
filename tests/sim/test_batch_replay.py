"""Differential tests: grouped replay versus per-configuration replay.

Grouped replay (``Application.simulate_group``, which shares one
compiled trace across a group through ``simulate_kernel``'s
``compiled_cache``, plus the engine's trace-program grouping) exists
purely to amortize work — one compiled trace, one pool dispatch per
group.  It must therefore be *invisible* in every observable: results
are bit-identical to per-configuration ``Application.simulate`` calls,
and the cache counters increment identically (grouping can never make
telemetry lie about how much replay actually happened).  These tests
pin both, property-style over random traces and end to end over all
four applications.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_applications
from repro.apps.mri_fhd import MriFhd
from repro.sim import WarpTrace, simulate_sm
from repro.sim.config import DEFAULT_SIM_CONFIG
from repro.sim.sm import compile_trace
from repro.sim.trace import BARRIER, COMPUTE, LOAD, SFU, STORE, USE
from repro.tuning.engine import ExecutionEngine


@st.composite
def event_lists(draw):
    """A random but well-formed warp event stream."""
    events = []
    pending = []
    next_slot = 0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        choices = ["compute", "load", "store", "sfu", "barrier"]
        if pending:
            choices.append("use")
        kind = draw(st.sampled_from(choices))
        if kind == "compute":
            events.append((COMPUTE, draw(st.integers(1, 16)), 0))
        elif kind == "load":
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


class TestSharedCompiledTrace:
    """One compiled linearization serving many launch variants."""

    @settings(max_examples=80, deadline=None)
    @given(
        event_lists(),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),   # warps_per_block
                st.integers(min_value=1, max_value=3),   # blocks_resident
                st.integers(min_value=1, max_value=8),   # total_blocks
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_precompiled_replay_bit_identical(self, events, variants):
        """Reusing ``compiled`` across variants never changes results.

        This is exactly what ``Application.simulate_group`` amortizes:
        every variant of one trace program replays through one shared
        :class:`~repro.sim.sm.CompiledTrace`.
        """
        trace = trace_from(events)
        compiled = compile_trace(trace, DEFAULT_SIM_CONFIG)
        for warps, resident, blocks in variants:
            fresh = simulate_sm(
                trace, warps_per_block=warps, blocks_resident=resident,
                total_blocks=blocks, config=DEFAULT_SIM_CONFIG)
            shared = simulate_sm(
                trace, warps_per_block=warps, blocks_resident=resident,
                total_blocks=blocks, config=DEFAULT_SIM_CONFIG,
                compiled=compiled)
            assert shared == fresh


class TestBatchAgainstSequential:
    """simulate_group == per-config simulate, all apps."""

    def _configs(self, app, stride, limit):
        return [c for c in app.space()][::stride][:limit]

    def _check_app(self, make_app, configs):
        """``make_app`` builds a fresh instance, so neither side sees
        the other's time, trace or replay caches."""
        grouped = make_app()
        group_times = grouped.simulate_group(configs)
        sequential = make_app()
        sequential_times = [sequential.simulate(c) for c in configs]
        assert group_times == sequential_times
        counters = grouped.sim_cache.counters()
        assert counters == sequential.sim_cache.counters()
        return counters

    def test_all_applications_exact_mode(self):
        for app in all_applications():
            make_app = app.test_instance
            self._check_app(make_app, self._configs(make_app(), 7, 6))

    def test_mri_trace_program_group(self):
        """A real group: seven invocation splits, one trace program."""
        make_app = MriFhd().test_instance
        group = [c for c in make_app().space()
                 if (c["block"], c["unroll"]) == (64, 2)]
        assert len(group) > 1
        self._check_app(make_app, group)

#: SM-replay telemetry that must not depend on grouping or workers
#: (engine.stats sums in-process counters with pool-worker deltas —
#: the surface tests/tuning/test_pool_telemetry.py pins).
SM_COUNTERS = (
    "waves_simulated",
    "blocks_replayed",
    "blocks_resident",
    "events_replayed",
    "events_skipped",
)


class TestGroupedEngine:
    """The engine's trace-program grouping is observationally inert."""

    def _sweep(self, workers):
        app = MriFhd().test_instance()
        configs = [c for c in app.space()][::5][:12]
        with ExecutionEngine.for_app(app, workers=workers) as engine:
            times = engine.seconds_for(configs)
            counters = {
                name: getattr(engine.stats, name) for name in SM_COUNTERS
            }
        return times, counters

    def test_serial_grouping_matches_plain_app(self):
        plain = MriFhd().test_instance()
        configs = [c for c in plain.space()][::5][:12]
        expected = [plain.simulate(c) for c in configs]
        times, counters = self._sweep(workers=1)
        assert times == expected
        plain_counters = dict(plain.sim_cache.counters())
        assert counters == {
            name: plain_counters[name] for name in SM_COUNTERS
        }

    def test_pooled_grouping_matches_serial(self):
        serial_times, serial_counters = self._sweep(workers=1)
        pooled_times, pooled_counters = self._sweep(workers=2)
        assert pooled_times == serial_times
        assert pooled_counters == serial_counters
