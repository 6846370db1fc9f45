"""The warm-path fast lane: memo-served sweeps, bit-identity with the
engine path, partial warmth, chunked cancellation on the event loop,
and keep-alive client reuse against a real daemon."""

from __future__ import annotations

import asyncio

from repro.harness.tables import fastlane_rows
from repro.service.client import ServiceClient
from repro.service.daemon import TuningService, parse_sweep_request
from repro.service.registry import CANCELLED, DONE

from tests.service.test_daemon import canonical, local_oracle


def service_deltas(daemon, before):
    """Service-counter deltas since ``before``."""
    after = daemon.service.counters.as_dict()
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(after) | set(before)
    }


def test_warm_resubmit_served_by_fastlane(fake_app_class, service_factory):
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    cold = daemon.client.sweep(request)
    assert daemon.client.status(cold["id"])["lane"] == "engine"
    calls_after_cold = len(fake_app_class.calls)

    before = daemon.service.counters.as_dict()
    warm = daemon.client.sweep(request)
    deltas = service_deltas(daemon, before)

    status = daemon.client.status(warm["id"])
    assert status["lane"] == "fastlane"
    assert deltas["fastlane_sweeps"] == 1
    assert deltas["fastlane_configs"] == 10
    assert deltas.get("executor_dispatches", 0) == 0
    # nothing reached the application, and no replay work happened
    assert len(fake_app_class.calls) == calls_after_cold
    assert warm["stats"]["simulations"] == 0
    assert warm["stats"]["events_replayed"] == 0
    assert canonical(warm["result"]) == canonical(cold["result"])


def test_both_lanes_report_every_engine_stat(fake_app_class,
                                            service_factory):
    """The per-sweep ``stats`` of an engine-lane sweep and of a
    fast-lane sweep carry the same keys: every EngineStats attribute."""
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    cold = daemon.client.sweep(request)
    warm = daemon.client.sweep(request)
    assert daemon.client.status(cold["id"])["lane"] == "engine"
    assert daemon.client.status(warm["id"])["lane"] == "fastlane"
    stats = daemon.service.runtimes["fake"].engine.stats
    attributes = {
        name for name in dir(stats)
        if not name.startswith("_") and not callable(getattr(stats, name))
    }
    assert "events_replayed" in attributes
    assert set(cold["stats"]) == set(warm["stats"]) == attributes


#: warms every static entry of FakeApp's space but measures only one
#: configuration, so a following sweep probes as partially warm
PARTIAL_PRIME = {"app": "fake", "strategy": "random", "sample_size": 1,
                 "seed": 3}

#: every selection strategy, the stochastic ones under fixed seeds
SELECTION_REQUESTS = [
    {"app": "fake", "strategy": "pareto"},
    {"app": "fake", "strategy": "pareto", "screen_bandwidth_bound": True},
    {"app": "fake", "strategy": "pareto+cluster", "seed": 5},
    {"app": "fake", "strategy": "random", "sample_size": 6, "seed": 11},
    {"app": "fake", "strategy": "exhaustive"},
]


def test_fastlane_bit_identical_to_engine_path(fake_app_class,
                                               service_factory):
    """Each selection request through every lane — ``engine`` (cold),
    ``fastlane-partial`` and ``fastlane`` — on a fastlane daemon, the
    same sequence on a fastlane-disabled daemon, and the one-shot
    ``run-local`` oracle must produce the byte-identical result
    payload, and both daemons must report the same cache traffic."""
    for request in SELECTION_REQUESTS:
        oracle = canonical(local_oracle(fake_app_class, request))
        sequences = (
            # cold (engine lane), then fully warm (fast lane)
            ([request, request], ["engine", "fastlane"]),
            # statics warm, one measurement warm: only misses dispatch
            ([PARTIAL_PRIME, request], ["engine", "fastlane-partial"]),
        )
        lanes_seen = set()
        for requests, lanes in sequences:
            lane_daemon = service_factory([fake_app_class()])
            engine_daemon = service_factory([fake_app_class()],
                                            fastlane=False)
            for payload, lane in zip(requests, lanes):
                on_lane = lane_daemon.client.sweep(payload)
                on_engine = engine_daemon.client.sweep(payload)
                assert (lane_daemon.client.status(on_lane["id"])["lane"]
                        == lane), (request, lane)
                assert (engine_daemon.client.status(on_engine["id"])["lane"]
                        == "engine"), request
                assert canonical(on_lane["result"]) == canonical(
                    on_engine["result"]
                ), (request, lane)
                for counter in ("simulations", "static_evaluations",
                                "static_cache_hits",
                                "simulation_cache_hits", "cache_hits"):
                    assert (on_lane["stats"][counter]
                            == on_engine["stats"][counter]), (
                        request, lane, counter)
                if payload is request:
                    assert canonical(on_lane["result"]) == oracle, (
                        request, lane)
                    lanes_seen.add(lane)
            lane_daemon.close_now()
            engine_daemon.close_now()
        assert lanes_seen == {"engine", "fastlane", "fastlane-partial"}


def test_partially_warm_sweep_dispatches_only_misses(fake_app_class,
                                                     service_factory):
    daemon = service_factory([fake_app_class()])
    # Warms every static (evaluate_all sees the whole space) but only
    # 4 of the 10 valid measurements.
    sample = daemon.client.sweep({
        "app": "fake", "strategy": "random", "sample_size": 4, "seed": 7,
    })
    assert daemon.client.status(sample["id"])["lane"] == "engine"
    calls_after_sample = len(fake_app_class.calls)
    assert calls_after_sample == 4

    before = daemon.service.counters.as_dict()
    full = daemon.client.sweep({"app": "fake", "strategy": "exhaustive"})
    deltas = service_deltas(daemon, before)

    assert daemon.client.status(full["id"])["lane"] == "fastlane-partial"
    assert deltas["fastlane_partial"] == 1
    assert deltas["executor_dispatches"] == 1  # the miss-only dispatch
    assert deltas["fastlane_configs"] == 4     # the memo-served portion
    # exactly the 6 cold measurements reached the application
    assert len(fake_app_class.calls) - calls_after_sample == 6
    assert full["stats"]["simulations"] == 6
    assert full["stats"]["simulation_cache_hits"] == 4
    oracle = local_oracle(fake_app_class,
                          {"app": "fake", "strategy": "exhaustive"})
    assert canonical(full["result"]) == canonical(oracle)


def test_concurrent_warm_sweeps_interleave(fake_app_class,
                                           service_factory):
    """Fully-warm sweeps never enter the executor, so several can run
    at once even on one runtime."""
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    daemon.client.sweep(request)
    before = daemon.service.counters.as_dict()
    jobs = [daemon.client.submit(request) for _ in range(4)]
    for job in jobs:
        status = daemon.client.wait(job["id"], timeout=30)
        assert status["state"] == "done"
        assert status["lane"] == "fastlane"
    deltas = service_deltas(daemon, before)
    assert deltas["fastlane_sweeps"] == 4
    assert deltas.get("executor_dispatches", 0) == 0
    payloads = [daemon.client.results(job["id"]) for job in jobs]
    for payload in payloads[1:]:
        assert canonical(payload["result"]) == canonical(
            payloads[0]["result"]
        )


def test_fastlane_cancellation_at_chunk_boundary(fake_app_class):
    """A cancel lands between chunks of a warm sweep being served on
    the event loop — the per-chunk ``await`` is what lets it in."""

    async def main():
        service = TuningService([fake_app_class()], workers=1)
        cold = parse_sweep_request(
            {"app": "fake", "strategy": "exhaustive"},
            service.apps_by_name,
        )
        job_cold = service.jobs.create(cold.runtime_key, cold.echo)
        await service._run_job(job_cold, cold)
        assert job_cold.state == DONE

        warm = parse_sweep_request(
            {"app": "fake", "strategy": "exhaustive", "chunk_size": 1},
            service.apps_by_name,
        )
        job = service.jobs.create(warm.runtime_key, warm.echo)

        async def watcher():
            while job.timed_done < 3:
                await asyncio.sleep(0)
            job.request_cancel()

        await asyncio.gather(
            service._run_job(job, warm), watcher()
        )
        state, lane, done, total = (
            job.state, job.lane, job.timed_done, job.timed_total
        )
        await service.close()
        return state, lane, done, total

    state, lane, done, total = asyncio.run(main())
    assert state == CANCELLED
    assert lane == "fastlane"
    assert total == 10
    assert 3 <= done < 10  # stopped at a chunk boundary, mid-sweep


def test_metrics_exposes_fastlane_counters(fake_app_class,
                                           service_factory):
    daemon = service_factory([fake_app_class()])
    request = {"app": "fake", "strategy": "exhaustive"}
    daemon.client.sweep(request)
    daemon.client.sweep(request)
    metrics = daemon.client.metrics()
    assert metrics["service"]["fastlane_sweeps"] >= 1
    assert "decoded_cache" in metrics
    assert set(metrics["decoded_cache"]) == {
        "decoded_cache_hits", "decoded_cache_misses",
        "decoded_cache_evictions", "decoded_cache_entries",
    }
    rows = fastlane_rows(metrics)
    by_name = {row["counter"]: row["value"] for row in rows}
    assert by_name["fastlane_sweeps"] >= 1
    assert by_name["executor_dispatches"] >= 1
    assert "store_bulk_reads" in by_name
    assert "keepalive_reuses" in by_name


def test_keepalive_client_reuses_connection(fake_app_class,
                                            service_factory):
    daemon = service_factory([fake_app_class()], keep_alive=True)
    client = ServiceClient(
        f"http://{daemon.client.host}:{daemon.client.port}",
        timeout=30, keep_alive=True,
    )
    try:
        before = daemon.service.counters.as_dict()
        for _ in range(5):
            assert client.healthz()["status"] == "ok"
        assert client.reused >= 4
        deltas = service_deltas(daemon, before)
        assert deltas["keepalive_reuses"] >= 4
        # A dead connection (server restart, request budget) recovers
        # transparently: retry-once on a fresh socket.
        client._connection.sock.close()
        assert client.healthz()["status"] == "ok"
    finally:
        client.close()


def test_keepalive_client_full_sweep_flow(fake_app_class,
                                          service_factory):
    """The polling ``sweep()`` helper — submit, poll, results — works
    unchanged over one persistent connection."""
    daemon = service_factory([fake_app_class()], keep_alive=True)
    client = ServiceClient(
        f"http://{daemon.client.host}:{daemon.client.port}",
        timeout=30, keep_alive=True,
    )
    try:
        payload = client.sweep({"app": "fake", "strategy": "exhaustive"})
        assert payload["result"]["timed_count"] == 10
        oracle = local_oracle(fake_app_class,
                              {"app": "fake", "strategy": "exhaustive"})
        assert canonical(payload["result"]) == canonical(oracle)
        assert client.reused >= 2  # submit + polls + results shared one socket
    finally:
        client.close()
