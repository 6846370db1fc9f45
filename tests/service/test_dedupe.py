"""Multi-client dedupe and persistent-store accounting.

Two clients submitting overlapping sweeps must produce results
bit-identical to serial one-shot runs, with the overlap served by the
runtime's one executor queue and its resident memo (no duplicate
simulations) and warm-store restarts served by replay hits (no new SM
replays).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service.daemon import parse_sweep_request, run_sweep
from repro.tuning.engine import ExecutionEngine

#: the 10 launchable configurations of FakeApp's space, in space order
VALID = [{"x": x, "y": y} for x in range(5) for y in (1, 2)]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def one_shot(fake_app_class, request_payload):
    request = parse_sweep_request(
        request_payload, {"fake": fake_app_class()}
    )
    engine = ExecutionEngine.for_app(fake_app_class(), workers=1)
    try:
        return run_sweep(engine, request)
    finally:
        engine.close()


def wait_until_timing(client, job_id: str) -> None:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] == "running" and status["timed_done"] >= 1:
            return
        time.sleep(0.01)
    pytest.fail("sweep never started timing")


def test_overlapping_sweeps_share_inflight_work(fake_app_class,
                                                service_factory):
    fake_app_class.delay = 0.05
    daemon = service_factory([fake_app_class()])
    request_a = {"app": "fake", "strategy": "exhaustive",
                 "configs": VALID[:7], "chunk_size": 1}
    request_b = {"app": "fake", "strategy": "exhaustive",
                 "configs": VALID[3:], "chunk_size": 1}
    job_a = daemon.client.submit(request_a)
    wait_until_timing(daemon.client, job_a["id"])
    job_b = daemon.client.submit(request_b)
    status_a = daemon.client.wait(job_a["id"], timeout=60)
    status_b = daemon.client.wait(job_b["id"], timeout=60)
    assert status_a["state"] == "done"
    assert status_b["state"] == "done"

    calls = [tuple(sorted(call.items())) for call in fake_app_class.calls]
    assert len(calls) == 10
    assert len(set(calls)) == 10, "duplicate simulations slipped through"

    result_a = daemon.client.results(job_a["id"])
    result_b = daemon.client.results(job_b["id"])
    # B queued behind A on the runtime's executor and only simulated
    # its three non-overlapping configurations; the rest came out of
    # the resident engine's memo, which A had filled.
    assert result_b["stats"]["simulations"] == 3
    assert result_b["stats"]["simulation_cache_hits"] == 4

    fake_app_class.reset()
    assert canonical(result_a["result"]) == canonical(
        one_shot(fake_app_class, request_a)
    )
    assert canonical(result_b["result"]) == canonical(
        one_shot(fake_app_class, request_b)
    )


def test_warm_store_restart_skips_sm_replay(service_factory, tmp_path):
    from repro.apps import all_applications

    apps = [app for app in all_applications() if app.name == "matmul"]
    assert apps, "matmul application missing"
    store = str(tmp_path / "store")
    request = {"app": "matmul", "strategy": "pareto", "limit": 12}

    first_daemon = service_factory([apps[0]], store=store)
    cold = first_daemon.client.sweep(request)
    first_daemon.close_now()

    second_daemon = service_factory([apps[0]], store=store)
    warm = second_daemon.client.sweep(request)

    assert canonical(warm["result"]) == canonical(cold["result"])
    # Simulations still run, but every SM replay comes from the store:
    # zero new replay events on the warm pass.
    assert warm["stats"]["store_hits"] > 0
    assert warm["stats"]["events_replayed"] == 0
    assert cold["stats"]["events_replayed"] > 0
