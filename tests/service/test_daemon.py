"""The daemon end-to-end: submit/status/results, validation,
cancellation, warm reuse, and bit-identity with the one-shot path."""

from __future__ import annotations

import functools
import json
import time

import pytest

from repro.harness.payload import search_result_payload
from repro.service.client import ServiceError
from repro.service.daemon import (
    RequestError,
    parse_sweep_request,
    run_sweep,
)
from repro.tuning.engine import ExecutionEngine
from repro.tuning.search import (
    full_exploration,
    pareto_cluster_search,
    pareto_search,
    random_search,
)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def local_oracle(fake_app_class, request_payload):
    """The one-shot CLI path: fresh app, fresh engine, same request."""
    request = parse_sweep_request(
        request_payload, {"fake": fake_app_class()}
    )
    app = fake_app_class()
    engine = ExecutionEngine.for_app(app, workers=1)
    try:
        return run_sweep(engine, request)
    finally:
        engine.close()


def test_submit_roundtrip_matches_one_shot(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    payload = daemon.client.sweep(request)
    oracle = local_oracle(fake_app_class, request)
    assert canonical(payload["result"]) == canonical(oracle)
    assert payload["result"]["timed_count"] == 10
    assert len(payload["result"]["invalid"]) == 2
    assert all("cannot launch" in entry["reason"]
               for entry in payload["result"]["invalid"])
    best = payload["result"]["best"]
    assert best["config"] == {"x": 0, "y": 1}
    assert best["seconds"] == pytest.approx(0.001)


def test_second_identical_submit_is_pure_cache(fake_app_class,
                                               service_factory):
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    first = daemon.client.sweep(request)
    calls_after_first = len(fake_app_class.calls)
    second = daemon.client.sweep(request)
    assert canonical(first["result"]) == canonical(second["result"])
    # The resident engine's memo served everything: no new simulate()
    # calls reached the application, and the stats delta shows pure
    # cache traffic.
    assert len(fake_app_class.calls) == calls_after_first
    assert second["stats"]["simulations"] == 0
    assert second["stats"]["static_evaluations"] == 0
    assert second["stats"]["simulation_cache_hits"] == 10


def test_pareto_and_random_strategies(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    pareto = daemon.client.sweep({"app": "fake", "strategy": "pareto"})
    assert pareto["result"]["strategy"] == "pareto"
    assert 0 < pareto["result"]["timed_count"] <= 10
    rand = daemon.client.sweep(
        {"app": "fake", "strategy": "random", "sample_size": 4, "seed": 7}
    )
    assert rand["result"]["timed_count"] == 4
    assert rand["result"]["requested_sample_size"] == 4
    oracle = local_oracle(
        fake_app_class,
        {"app": "fake", "strategy": "random", "sample_size": 4, "seed": 7},
    )
    assert canonical(rand["result"]) == canonical(oracle)


def test_explicit_config_subset(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    subset = [{"x": 0, "y": 1}, {"x": 1, "y": 2}, {"x": 2, "y": 1}]
    payload = daemon.client.sweep(
        {"app": "fake", "strategy": "exhaustive", "configs": subset}
    )
    assert payload["result"]["space_size"] == 3
    assert payload["result"]["timed_count"] == 3
    assert [e["config"] for e in payload["result"]["timed"]] == subset


def test_validation_errors_are_400(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    cases = [
        ({"app": "nope"}, "unknown app"),
        ({"app": "fake", "strategy": "nope"}, "unknown strategy"),
        ({"app": "fake", "bogus": 1}, "unknown request fields"),
        ({"app": "fake", "limit": 0}, "limit"),
        ({"app": "fake", "configs": [{"x": 0}]}, "parameters"),
        ({"app": "fake", "configs": [{"x": 99, "y": 1}]}, "not one of"),
        ({"app": "fake", "strategy": "random"}, "sample_size"),
        ({"app": "fake", "chunk_size": -1}, "chunk_size"),
        ({"app": "fake", "limit": 4, "configs": [{"x": 0, "y": 1}]},
         "not both"),
    ]
    for payload, needle in cases:
        with pytest.raises(ServiceError) as caught:
            daemon.client.submit(payload)
        assert caught.value.status == 400
        assert needle in caught.value.message


def test_unknown_sweep_is_404_and_results_conflict(fake_app_class,
                                                   service_factory):
    daemon = service_factory([fake_app_class()])
    with pytest.raises(ServiceError) as missing:
        daemon.client.status("sweep-999")
    assert missing.value.status == 404
    fake_app_class.delay = 0.1
    job = daemon.client.submit(
        {"app": "fake", "strategy": "exhaustive", "chunk_size": 1}
    )
    with pytest.raises(ServiceError) as running:
        daemon.client.results(job["id"])
    assert running.value.status == 409
    fake_app_class.delay = 0.0
    daemon.client.wait(job["id"])


def test_cancellation_stops_mid_sweep(fake_app_class, service_factory):
    fake_app_class.delay = 0.15
    daemon = service_factory([fake_app_class()])
    job = daemon.client.submit(
        {"app": "fake", "strategy": "exhaustive", "chunk_size": 1}
    )
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status = daemon.client.status(job["id"])
        if status["state"] == "running" and status["timed_done"] >= 1:
            break
        time.sleep(0.02)
    else:
        pytest.fail("sweep never started timing")
    daemon.client.cancel(job["id"])
    status = daemon.client.wait(job["id"])
    assert status["state"] == "cancelled"
    assert len(fake_app_class.calls) < 10
    with pytest.raises(ServiceError) as results:
        daemon.client.results(job["id"])
    assert results.value.status == 409


def test_duplicate_configs_do_not_deadlock(fake_app_class,
                                           service_factory):
    """A submission repeating a configuration must complete instead of
    waiting on its own in-flight claim (the QUEUED-forever regression:
    the job would gather a future only its own finally released)."""
    daemon = service_factory([fake_app_class()])
    subset = [{"x": 0, "y": 1}, {"x": 0, "y": 1},
              {"x": 1, "y": 2}, {"x": 0, "y": 1}]
    job = daemon.client.submit(
        {"app": "fake", "strategy": "exhaustive", "configs": subset}
    )
    status = daemon.client.wait(job["id"], timeout=30)
    assert status["state"] == "done"
    # The duplicates deduped against nothing (no other sweep owns
    # them), not against this sweep's own claim.
    assert status["dedupe_hits"] == 0
    payload = daemon.client.results(job["id"])
    assert payload["result"]["best"]["config"] == {"x": 0, "y": 1}


def test_cancel_takes_effect_while_queued_behind_overlap(fake_app_class,
                                                         service_factory):
    """Cancelling a sweep parked on another sweep's in-flight futures
    must not wait for the owning sweep to finish."""
    fake_app_class.delay = 0.3
    daemon = service_factory([fake_app_class()])
    job_a = daemon.client.submit(
        {"app": "fake", "strategy": "exhaustive", "chunk_size": 1}
    )
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status = daemon.client.status(job_a["id"])
        if status["state"] == "running" and status["timed_done"] >= 1:
            break
        time.sleep(0.02)
    else:
        pytest.fail("sweep A never started timing")
    # B's whole subset is claimed by A, so B queues awaiting A.
    job_b = daemon.client.submit({
        "app": "fake", "strategy": "exhaustive",
        "configs": [{"x": 0, "y": 1}, {"x": 1, "y": 1}],
    })
    assert daemon.client.status(job_b["id"])["state"] == "queued"
    daemon.client.cancel(job_b["id"])
    deadline = time.monotonic() + 2
    while time.monotonic() < deadline:
        status_b = daemon.client.status(job_b["id"])
        if status_b["state"] == "cancelled":
            break
        time.sleep(0.02)
    else:
        pytest.fail("queued sweep did not cancel until its owner ended")
    # The owning sweep is still running: the cancel did not wait it out.
    assert daemon.client.status(job_a["id"])["state"] == "running"
    fake_app_class.delay = 0.0
    assert daemon.client.wait(job_a["id"])["state"] == "done"


def test_healthz_and_metrics(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    health = daemon.client.healthz()
    assert health["status"] == "ok"
    daemon.client.sweep({"app": "fake", "strategy": "exhaustive"})
    health = daemon.client.healthz()
    assert health["jobs"] == {"done": 1}
    assert health["runtimes"] == ["fake"]
    metrics = daemon.client.metrics()
    assert metrics["service"]["sweeps_completed"] >= 1
    assert metrics["runtimes"]["fake"]["simulations"] == 10
    assert metrics["inflight_keys"] == 0


def test_each_service_counts_only_its_own_work(fake_app_class,
                                              service_factory):
    """Two daemons in one process: neither starts from, nor sees, the
    other's service counters."""
    first = service_factory([fake_app_class()])
    first.client.sweep({"app": "fake", "strategy": "exhaustive"})
    first.client.sweep({"app": "fake", "strategy": "exhaustive"})
    second = service_factory([fake_app_class()])
    assert second.client.metrics()["service"] == {}
    second.client.sweep({"app": "fake", "strategy": "exhaustive"})
    assert second.client.metrics()["service"]["sweeps_completed"] == 1
    assert second.service.counters["sweeps_submitted"] == 1
    assert first.client.metrics()["service"]["sweeps_completed"] == 2
    assert first.service.counters["sweeps_submitted"] == 2


def test_sim_overrides_run_on_a_separate_runtime(fake_app_class,
                                                 service_factory):
    daemon = service_factory([fake_app_class()])
    daemon.client.sweep({"app": "fake", "strategy": "exhaustive"})
    payload = daemon.client.sweep({
        "app": "fake", "strategy": "exhaustive",
        "sim_overrides": {"knob": 1},
    })
    # A distinct runtime: the override sweep re-simulated everything
    # on its own engine instead of poisoning the base runtime's caches.
    assert payload["stats"]["simulations"] == 10
    health = daemon.client.healthz()
    assert len(health["runtimes"]) == 2
    assert any(key.startswith("fake@") for key in health["runtimes"])


def test_parse_sweep_request_rejects_non_object(fake_app_class):
    with pytest.raises(RequestError):
        parse_sweep_request([1, 2], {"fake": fake_app_class()})


@pytest.mark.parametrize("payload, needle", [
    ({"strategy": "random", "sample_size": 3, "seed": "abc"}, "seed"),
    ({"strategy": "random", "sample_size": 3, "seed": 1.7}, "seed"),
    ({"strategy": "random", "sample_size": True}, "sample_size"),
    ({"strategy": "genetic", "seed": None}, "seed"),
    ({"strategy": "pareto+cluster", "relative_tolerance": [1]},
     "relative_tolerance"),
    ({"strategy": "exhaustive", "limit": True}, "limit"),
    ({"strategy": "exhaustive", "chunk_size": True}, "chunk_size"),
], ids=["seed-string", "seed-float", "sample_size-true", "seed-null",
        "relative_tolerance-list", "limit-true", "chunk_size-true"])
def test_hostile_request_fields_are_counted_400s(fake_app_class,
                                                 service_factory,
                                                 payload, needle):
    """Wrongly typed fields end in a counted 400, never a 500 or a
    silent coercion (``true`` is not 1, 1.7 is not a seed)."""
    daemon = service_factory([fake_app_class()])
    with pytest.raises(ServiceError) as caught:
        daemon.client.submit({"app": "fake", **payload})
    assert caught.value.status == 400
    assert needle in caught.value.message
    assert daemon.service.counters["requests_rejected"] == 1
    assert daemon.service.counters["sweeps_submitted"] == 0


@pytest.mark.parametrize("search, payload", [
    (full_exploration, {"strategy": "exhaustive"}),
    (functools.partial(pareto_search, screen_bandwidth_bound=True),
     {"strategy": "pareto", "screen_bandwidth_bound": True}),
    (functools.partial(pareto_cluster_search, relative_tolerance=0.05,
                       seed=3),
     {"strategy": "pareto+cluster", "relative_tolerance": 0.05, "seed": 3}),
    (functools.partial(random_search, sample_size=7, seed=2),
     {"strategy": "random", "sample_size": 7, "seed": 2}),
], ids=["exhaustive", "pareto", "pareto+cluster", "random"])
def test_search_functions_match_run_sweep(search, payload):
    """Each public search function returns exactly the SearchResult
    that ``run_sweep`` (the daemon's and ``run-local``'s core) reports
    for the same request, on cp's test instance."""
    from repro.apps import CoulombicPotential

    app = CoulombicPotential().test_instance()
    request = parse_sweep_request({"app": "cp", **payload}, {"cp": app})
    with ExecutionEngine.for_app(app, workers=1) as engine:
        direct = search(request.configs, engine=engine)
    with ExecutionEngine.for_app(
        CoulombicPotential().test_instance(), workers=1
    ) as engine:
        swept = run_sweep(engine, request)
    assert canonical(search_result_payload(direct)) == canonical(swept)
