"""Differential tests: trace-program grouping versus one task per config.

The engine measures configurations that share a trace program
(``Application.trace_group_key``) as one task — one pool dispatch per
group.  Grouping exists purely to change dispatch granularity, so it
must be *invisible* in every observable: times are bit-identical to
per-configuration ``Application.simulate`` calls, and the SM-replay
counters increment identically, serial or pooled (grouping can never
make telemetry lie about how much replay actually happened).
"""

from repro.apps.mri_fhd import MriFhd
from repro.tuning.engine import ExecutionEngine


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
