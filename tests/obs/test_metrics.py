"""Counters: the mergeable registry pool workers ship deltas through."""

import pickle

import pytest

from repro.obs import Counters, counter_delta

pytestmark = pytest.mark.fast


class TestCounters:
    def test_incr_and_get(self):
        c = Counters()
        c.incr("sims")
        c.incr("sims", 2)
        c.incr("waves", 0.5)
        assert c["sims"] == 3
        assert c.get("waves") == 0.5
        assert c.get("missing") == 0
        assert c.get("missing", -1) == -1

    def test_merge_counters_and_mappings(self):
        a = Counters({"x": 1})
        b = Counters({"x": 2, "y": 3})
        a.merge(b).merge({"y": 1, "z": 0.25})
        assert a.as_dict() == {"x": 3, "y": 4, "z": 0.25}
        # merging mutates only the receiver
        assert b.as_dict() == {"x": 2, "y": 3}

    def test_merge_order_independent(self):
        deltas = [{"x": 1}, {"x": 2, "y": 1}, {"y": 4.0}]
        forward = Counters()
        for delta in deltas:
            forward.merge(delta)
        backward = Counters()
        for delta in reversed(deltas):
            backward.merge(delta)
        assert forward == backward

    def test_bool_len_iter(self):
        assert not Counters()
        assert not Counters({"x": 0})       # all-zero counts as empty
        assert Counters({"x": 1})
        c = Counters({"a": 1, "b": 2})
        assert len(c) == 2
        assert sorted(c) == ["a", "b"]

    def test_eq_against_mapping(self):
        assert Counters({"a": 1}) == {"a": 1}
        assert Counters({"a": 1}) != {"a": 2}

    def test_pickle_round_trip(self):
        c = Counters({"sims": 7, "waves": 1.5})
        clone = pickle.loads(pickle.dumps(c))
        assert clone == c
        clone.incr("sims")
        assert clone != c

    def test_clear(self):
        c = Counters({"x": 1})
        c.clear()
        assert c.as_dict() == {}


class TestCounterDelta:
    def test_only_changes_reported(self):
        before = {"hits": 2, "waves": 5, "events": 100}
        after = {"hits": 2, "waves": 7, "events": 160}
        assert counter_delta(after, before) == {"waves": 2, "events": 60}

    def test_none_baseline_keeps_nonzero(self):
        assert counter_delta({"a": 0, "b": 3}, None) == {"b": 3}

    def test_new_names_included(self):
        assert counter_delta({"a": 1, "b": 2}, {"a": 1}) == {"b": 2}

    def test_delta_since_method(self):
        c = Counters({"a": 1})
        snapshot = c.as_dict()
        c.incr("a")
        c.incr("b", 2)
        assert c.delta_since(snapshot) == {"a": 1, "b": 2}

    def test_sum_of_deltas_equals_total(self):
        """The aggregation identity the engine's pool telemetry rests
        on: per-task deltas summed across any partition reproduce the
        absolute totals."""
        tasks = [{"waves": 3, "events": 10}, {"waves": 1}, {"events": 5}]
        worker_a = Counters()
        worker_b = Counters()
        parent = Counters()
        for i, task in enumerate(tasks):
            worker = worker_a if i % 2 == 0 else worker_b
            before = worker.as_dict()
            worker.merge(task)
            parent.merge(worker.delta_since(before))
        total = Counters()
        for task in tasks:
            total.merge(task)
        assert parent == total
