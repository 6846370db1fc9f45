"""Tracer: span recording, disabled-mode overhead, Chrome-trace export."""

import json

import pytest

from repro.obs import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

pytestmark = pytest.mark.fast


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with the global tracer disabled."""
    disable_tracing()
    yield
    disable_tracing()
    get_tracer().clear()


class TestTracer:
    def test_disabled_by_default_records_nothing(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.instant("tick")
        tracer.counter("c", {"v": 1})
        assert tracer.events == []

    def test_span_records_complete_event(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", cat="test", args={"n": 3}):
            pass
        (event,) = tracer.events
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["cat"] == "test"
        assert event["args"] == {"n": 3}
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)

    def test_add_args_mid_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("batch", args={"requested": 9}) as sp:
            sp.add_args(missing=4)
        (event,) = tracer.events
        assert event["args"] == {"requested": 9, "missing": 4}

    def test_nested_spans_both_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in tracer.events]
        assert names == ["inner", "outer"]  # completion order
        inner, outer = tracer.events
        assert outer["dur"] >= inner["dur"]

    def test_instant_and_counter_phases(self):
        tracer = Tracer(enabled=True)
        tracer.instant("converged", args={"wave": 4})
        tracer.counter("cache", {"hits": 2.0})
        instant, counter = tracer.events
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert counter["ph"] == "C"
        assert counter["args"] == {"hits": 2.0}

    def test_manual_complete_event(self):
        tracer = Tracer(enabled=True)
        started = tracer.now()
        tracer.complete_event("replay", started, cat="sim",
                              args={"blocks": 8})
        (event,) = tracer.events
        assert event["name"] == "replay"
        assert event["dur"] >= 0.0


class TestGlobalTracer:
    def test_module_span_is_noop_singleton_when_disabled(self):
        # The disabled fast path must not allocate per call — that is
        # the "near-zero overhead" contract the hot paths rely on.
        first = span("anything", n=1)
        second = span("other")
        assert first is second
        with first:
            pass
        assert get_tracer().events == []

    def test_current_tracer_gates_on_enabled(self):
        assert current_tracer() is None
        tracer = enable_tracing()
        try:
            assert current_tracer() is tracer
            assert tracing_enabled()
        finally:
            disable_tracing()
        assert current_tracer() is None

    def test_enable_records_and_clears_by_default(self):
        tracer = enable_tracing()
        with span("visible"):
            pass
        assert [e["name"] for e in tracer.events] == ["visible"]
        enable_tracing()  # fresh=True drops the old events
        assert tracer.events == []


class TestChromeExport:
    def test_schema_round_trip(self, tmp_path):
        """The exported file must be a valid Chrome-trace JSON object:
        loadable, with well-formed traceEvents — the schema Perfetto
        and chrome://tracing both accept."""
        tracer = Tracer(enabled=True)
        with tracer.span("engine.simulate_batch", cat="engine",
                         args={"requested": 2}):
            with tracer.span("sm.replay", cat="sim", args={"blocks": 4}):
                pass
        tracer.instant("sim.marker", cat="sim", args={"wave": 3})

        path = str(tmp_path / "trace.json")
        tracer.export(path)
        loaded = json.loads(open(path).read())

        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        # round-trip: re-serializing what we loaded is stable
        assert json.loads(json.dumps(loaded)) == loaded

    def test_export_survives_non_json_args(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("odd", args={"obj": object()}):
            pass
        path = str(tmp_path / "trace.json")
        tracer.export(path)  # default=repr, must not raise
        loaded = json.loads(open(path).read())
        assert loaded["traceEvents"][0]["name"] == "odd"
