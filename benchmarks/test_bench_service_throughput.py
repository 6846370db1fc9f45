"""Tuning-daemon warm-path throughput: fast lane versus executor path.

Not a paper experiment: this benchmark gates the PR 9 service fast
lane.  Two daemons run in-process, each over a persistent store of its
own, on the real matmul space:

* **engine daemon** (``fastlane=False``) — the memo probe is skipped,
  so every sweep dispatches the whole ``run_sweep`` to the runtime's
  single-thread executor;
* **fastlane daemon** — warm re-submits are probed against the
  resident memo and answered on the event loop.

Each daemon pays one cold sweep to warm its resident memo.  The
stores are separate so that the concurrency phase's blocker (below)
is cold on both daemons: the store's ``config`` tier keeps every
measured configuration, and cp's whole 40-configuration space is what
the first daemon's blocker measures.  Then ``WARM_REQUESTS`` identical
re-submits run against each over a keep-alive connection with a tight
poll interval, interleaved one-for-one between the two daemons so
that a drift in machine speed during the phase hits both arms alike
rather than landing on whichever ran second.  Two latency views come
out of that:

* **server-side sweep latency** — ``finished - started`` from the
  job's own status payload: the time the daemon spent actually
  serving the sweep (executor handoff + warm ``run_sweep`` on the
  engine path; the chunked memo serve on the lane).  This is the
  gated number (``fastlane_speedup``, engine warm min over fastlane
  warm min — timeit-style minimums, since the scheduler noise a
  shared machine adds to either lane only ever inflates samples):
  ``speedup >= max(2.0, allowed_fraction * baseline)``.  p50/p99 and
  submit-to-done (``finished - created``) are reported alongside.
* **end-to-end client latency** — submit + poll + results over HTTP,
  reported (p50/p99/req-sec) but not gated: on localhost it is
  dominated by JSON round trips and the poll cadence, which both
  lanes pay identically.

All payloads — cold, warm, both daemons — must be bit-identical and
the warm fast-lane phase must dispatch nothing to the executor
(counter deltas).

A final *concurrency* phase measures the fast lane's real scheduling
win: warm sweeps no longer queue behind cold tuning work on their
runtime's serial executor.  Each daemon warms a small ``cp`` sampling
sweep, then its cp executor is occupied with a larger cold cp sample
(the blocker — a fresh seed, so its configs need real simulation),
and ``CONCURRENT_CLIENTS`` warm re-submits of the small sweep run
while the blocker grinds.  On the engine daemon they head-of-line
block behind the cold job on the runtime's single executor thread:
asserted, not gated — every one of them finishes after the blocker.
On the fastlane daemon every one rides the lane straight past it —
asserted too: each finishes before the blocker does, so the whole
measurement ran under load — and that is the gate: ``lane_isolation``
is the lane's wall clock for the same warm sweeps with no blocker
(the best of ``UNLOADED_REPEATS``) over its wall clock under the
blocker.  1.0 would mean the blocker costs the lane nothing; the
blocker's thread shares the interpreter lock with the lane, so it
reads well below that, but a lane queued behind the blocker would
read far lower still.  Both walls are the lane's own, so a faster or
slower cold path moves neither.
``concurrency_scaling`` (the engine daemon's wall under load over the
lane's) is still reported; it is not gated, because its numerator is
mostly the blocker's remaining run time.

Results are written to ``BENCH_service_throughput.json`` at the repo
root; nightly CI uploads it next to the other ``BENCH_*`` artifacts.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time

from repro.apps import CoulombicPotential, MatMul
from repro.service.client import ServiceClient

from tests.service.conftest import RunningService

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baselines", "service_throughput.json")
RESULT_PATH = os.path.join(HERE, os.pardir, "BENCH_service_throughput.json")

REQUEST = {"app": "matmul", "strategy": "exhaustive"}
WARM_REQUESTS = 60
CONCURRENT_CLIENTS = 4
#: the small cp sweep the concurrency phase re-submits warm
CP_WARM_REQUEST = {
    "app": "cp", "strategy": "random", "sample_size": 12, "seed": 1,
}
#: cold cp sampling sweep that occupies the cp runtime's executor for
#: the concurrency phase (~40ms per cold config: comfortably outlasts
#: the warm sweeps riding the lane past it, without dominating the run)
BLOCKER_SAMPLE_SIZE = 40
#: tight polling so measured latency reflects the daemon, not the
#: client's default 200ms poll interval.  Not *too* tight: the fast
#: lane serves on the event loop and yields at chunk boundaries, so a
#: sub-sweep poll cadence would splice poll handling into the lane's
#: own started->finished window (the executor path runs off-loop and
#: is immune), skewing the comparison against the lane.
POLL_INTERVAL = 0.005
#: unloaded lane walls taken; the best is the isolation numerator
UNLOADED_REPEATS = 3


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def timed_sweep(client: ServiceClient, request=REQUEST,
                timeout: float = 300.0):
    """One submit -> poll -> results round trip; (seconds, payload)."""
    started = time.perf_counter()
    job = client.submit(request)
    deadline = time.monotonic() + timeout
    status = client.status(job["id"])
    while status["state"] in ("queued", "running"):
        if time.monotonic() >= deadline:
            raise TimeoutError(f"sweep {job['id']} still {status['state']}")
        time.sleep(POLL_INTERVAL)
        status = client.status(job["id"])
    assert status["state"] == "done", status
    payload = client.results(job["id"])
    return time.perf_counter() - started, payload, status


def warm_phases(daemons, count: int):
    """``count`` identical warm re-submits to each daemon, interleaved
    one-for-one (the first daemon leads on even rounds, the second on
    odd ones), so machine drift during the phase hits every arm alike.

    Returns, per daemon, (client latencies, sweep latencies,
    submit-to-done latencies, last payload) — sweep latency is
    ``finished - started`` from the job's status payload (the daemon's
    own account of serving the sweep), submit-to-done is ``finished -
    created``.
    """
    clients = [
        ServiceClient(
            f"http://{daemon.client.host}:{daemon.client.port}",
            timeout=60, keep_alive=True,
        )
        for daemon in daemons
    ]
    phases = [([], [], [], None) for _ in daemons]
    try:
        for round_index in range(count):
            order = list(range(len(daemons)))
            if round_index % 2:
                order.reverse()
            for index in order:
                seconds, payload, status = timed_sweep(clients[index])
                client_lat, sweep_lat, total_lat, _ = phases[index]
                client_lat.append(seconds)
                sweep_lat.append(status["finished"] - status["started"])
                total_lat.append(status["finished"] - status["created"])
                phases[index] = (client_lat, sweep_lat, total_lat, payload)
    finally:
        for client in clients:
            client.close()
    return phases


def percentile(latencies, fraction: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _warm_wall(daemon, seed=None):
    """Wall clock of warm ``CP_WARM_REQUEST`` re-submits, with the
    outcomes and the blocker's final status.  With a ``seed``, a cold
    cp sampling sweep of that seed is submitted first and holds the cp
    runtime's executor meanwhile: its single executor thread is the
    blocker's for the whole run — on the engine daemon the warm sweeps
    head-of-line block behind it; on the fastlane daemon they ride the
    lane straight past it.  Without one, the sweeps run unloaded."""
    blocker = None
    if seed is not None:
        blocker = daemon.client.submit({
            "app": "cp", "strategy": "random",
            "sample_size": BLOCKER_SAMPLE_SIZE, "seed": seed,
        })
    client = ServiceClient(
        f"http://{daemon.client.host}:{daemon.client.port}",
        timeout=300, keep_alive=True,
    )
    outcomes = []
    started = time.perf_counter()
    try:
        for _ in range(CONCURRENT_CLIENTS):
            _, payload, status = timed_sweep(client, CP_WARM_REQUEST)
            outcomes.append((payload, status))
    finally:
        client.close()
    wall = time.perf_counter() - started
    if blocker is None:
        return wall, outcomes, None
    blocker_status = daemon.client.wait(blocker["id"], timeout=300)
    assert blocker_status["state"] == "done", blocker_status
    return wall, outcomes, blocker_status


def service_deltas(daemon, before):
    after = daemon.service.counters.as_dict()
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(after) | set(before)
    }


def test_warm_sweep_fastlane_throughput():
    store_dir = tempfile.mkdtemp(prefix="repro-store-service-bench-")
    lane_store_dir = tempfile.mkdtemp(prefix="repro-store-service-bench-")
    engine_daemon = fastlane_daemon = None
    try:
        # ------------------------------------------------------------------
        # The reference arm skips the memo probe: every sweep
        # dispatches the whole run_sweep to the executor, memo-warm.
        engine_daemon = RunningService(
            [MatMul(), CoulombicPotential()], workers=1, store=store_dir,
            fastlane=False, keep_alive=True,
        )
        cold_started = time.perf_counter()
        cold = engine_daemon.client.sweep(REQUEST, timeout=600)
        cold_seconds = time.perf_counter() - cold_started

        # The fast lane, over a store of its own (so its blocker below
        # is as cold as the engine daemon's).
        fastlane_daemon = RunningService(
            [MatMul(), CoulombicPotential()], workers=1,
            store=lane_store_dir,
            keep_alive=True,
        )
        seed = fastlane_daemon.client.sweep(REQUEST, timeout=600)
        assert fastlane_daemon.client.status(seed["id"])["lane"] == "engine"

        before = fastlane_daemon.service.counters.as_dict()
        (
            (engine_client_lat, engine_sweep_lat, engine_total_lat,
             engine_payload),
            (fastlane_client_lat, fastlane_sweep_lat, fastlane_total_lat,
             fastlane_payload),
        ) = warm_phases([engine_daemon, fastlane_daemon], WARM_REQUESTS)
        deltas = service_deltas(fastlane_daemon, before)
        assert canonical(engine_payload["result"]) == canonical(
            cold["result"]
        )
        assert engine_payload["stats"]["simulations"] == 0
        # Every warm re-submit rode the lane; the executor sat idle.
        assert deltas["fastlane_sweeps"] == WARM_REQUESTS
        assert deltas.get("executor_dispatches", 0) == 0
        assert deltas.get("keepalive_reuses", 0) > 0
        assert fastlane_payload["stats"]["simulations"] == 0
        assert fastlane_payload["stats"]["events_replayed"] == 0
        # Bit-identity across paths, daemons, and the cold run.
        assert canonical(fastlane_payload["result"]) == canonical(
            cold["result"]
        )

        # ------------------------------------------------------------------
        # Concurrency: warm the small cp sweep on each daemon, occupy
        # each cp executor with a cold cp sample, and run the warm
        # re-submits against it (the lane also runs them unloaded).
        cp_seed = engine_daemon.client.sweep(CP_WARM_REQUEST, timeout=600)
        serial_seconds, engine_under_load, engine_blocker = _warm_wall(
            engine_daemon, seed=3
        )
        for payload, status in engine_under_load:
            assert canonical(payload["result"]) == canonical(
                cp_seed["result"]
            )
            # Head-of-line: the executor was the blocker's until it
            # finished (same daemon, same clock).
            assert status["lane"] == "engine"
            assert status["finished"] >= engine_blocker["finished"]

        lane_cp_seed = fastlane_daemon.client.sweep(
            CP_WARM_REQUEST, timeout=600
        )
        assert canonical(lane_cp_seed["result"]) == canonical(
            cp_seed["result"]
        )
        unloaded = [_warm_wall(fastlane_daemon)
                    for _ in range(UNLOADED_REPEATS)]
        lane_unloaded_seconds = min(wall for wall, _, _ in unloaded)
        concurrent_seconds, lane_under_load, lane_blocker = _warm_wall(
            fastlane_daemon, seed=4
        )
        for payload, status in lane_under_load + [
                outcome for _, outcomes, _ in unloaded
                for outcome in outcomes]:
            assert status["lane"] == "fastlane"
            assert canonical(payload["result"]) == canonical(
                cp_seed["result"]
            )
        for _, status in lane_under_load:
            assert status["finished"] < lane_blocker["finished"]
        lane_isolation = lane_unloaded_seconds / concurrent_seconds
        concurrency_scaling = serial_seconds / concurrent_seconds
    finally:
        for daemon in (engine_daemon, fastlane_daemon):
            if daemon is not None:
                daemon.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(lane_store_dir, ignore_errors=True)

    fastlane_speedup = min(engine_sweep_lat) / min(fastlane_sweep_lat)

    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    expected_speedup = baseline["matmul_exhaustive"]["fastlane_speedup"]
    expected_isolation = baseline["matmul_exhaustive"]["lane_isolation"]
    allowed_fraction = baseline["allowed_fraction"]

    def latency_block(sweep, total, client):
        return {
            "sweep_min_ms": round(min(sweep) * 1e3, 3),
            "sweep_p50_ms": round(statistics.median(sweep) * 1e3, 3),
            "sweep_p99_ms": round(percentile(sweep, 0.99) * 1e3, 3),
            "submit_to_done_p50_ms": round(
                statistics.median(total) * 1e3, 3
            ),
            "client_p50_ms": round(statistics.median(client) * 1e3, 2),
            "client_p99_ms": round(percentile(client, 0.99) * 1e3, 2),
            "requests_per_second": round(len(client) / sum(client), 1),
        }

    payload = {
        "benchmark": "service_throughput",
        "request": REQUEST,
        "warm_requests": WARM_REQUESTS,
        "cold_sweep_seconds": round(cold_seconds, 3),
        "engine_path": latency_block(
            engine_sweep_lat, engine_total_lat, engine_client_lat
        ),
        "fastlane": latency_block(
            fastlane_sweep_lat, fastlane_total_lat, fastlane_client_lat
        ),
        "fastlane_speedup": round(fastlane_speedup, 2),
        "baseline_speedup": expected_speedup,
        "concurrency": {
            "warm_sweeps": CONCURRENT_CLIENTS,
            "blocker": {
                "app": "cp", "strategy": "random",
                "sample_size": BLOCKER_SAMPLE_SIZE,
            },
            "engine_blocker_seconds": round(
                engine_blocker["finished"] - engine_blocker["started"], 3
            ),
            "fastlane_blocker_seconds": round(
                lane_blocker["finished"] - lane_blocker["started"], 3
            ),
            "engine_under_load_seconds": round(serial_seconds, 3),
            "fastlane_unloaded_seconds": round(lane_unloaded_seconds, 3),
            "fastlane_under_load_seconds": round(concurrent_seconds, 3),
            "scaling": round(concurrency_scaling, 2),
            "lane_isolation": round(lane_isolation, 3),
            "baseline_isolation": expected_isolation,
        },
        "gate": (
            f"fastlane_speedup (min/min) >= "
            f"max(2.0, {allowed_fraction} * baseline) "
            f"and lane_isolation >= {allowed_fraction} * baseline_isolation"
        ),
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")

    floor = max(2.0, allowed_fraction * expected_speedup)
    assert fastlane_speedup >= floor, (
        f"warm fast lane regressed: {fastlane_speedup:.2f}x over the "
        f"executor path vs required {floor:.2f}x "
        f"(baseline {expected_speedup}x, fraction {allowed_fraction})"
    )
    assert lane_isolation >= allowed_fraction * expected_isolation, (
        f"warm sweeps on the lane slowed under a cold blocker: isolation "
        f"{lane_isolation:.3f} vs baseline {expected_isolation} "
        f"(allowed fraction {allowed_fraction})"
    )
