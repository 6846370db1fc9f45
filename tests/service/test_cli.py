"""The service CLI end to end, as separate processes: ``serve`` over a
cold store, ``sweep``/``status``/``metrics`` against it, ``run-local``
as the oracle, then a restart over the warm store and a warm
re-submit on the fast lane — on the real mri-fhd application."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REQUEST = ["--app", "mri-fhd", "--strategy", "pareto", "--limit", "48"]
TIMEOUT = 300


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_STORE", None)
    return env


def cli(*args):
    """One client subcommand; its JSON output."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        env=cli_env(), capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class Daemon:
    """``serve --port 0`` in a child process, up once its ready file
    names the bound URL."""

    def __init__(self, tmp_path, name, store, *extra):
        self.ready = tmp_path / f"{name}.ready.json"
        self.log = tmp_path / f"{name}.log"
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--apps", "mri-fhd", "--store", str(store),
                 "--ready-file", str(self.ready), *extra],
                env=cli_env(), stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while not self.ready.exists():
            assert self.process.poll() is None, self.log.read_text()
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.05)
        self.url = json.loads(self.ready.read_text())["url"]

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def sweep(self):
        """``sweep`` then ``status``: (results payload, status)."""
        payload = cli("sweep", "--url", self.url, *REQUEST)
        return payload, cli("status", payload["id"], "--url", self.url)

    def metrics(self):
        return cli("metrics", "--url", self.url)["service"]


def span(status):
    return status["finished"] - status["started"]


def test_daemon_cli_cold_warm_restart_and_fast_lane(tmp_path):
    store = tmp_path / "store"
    cold_daemon = Daemon(tmp_path, "cold", store)
    try:
        cold, cold_status = cold_daemon.sweep()
    finally:
        cold_daemon.stop()
    local = cli("run-local", *REQUEST)
    assert cold["result"] == local["result"], "daemon diverged from run-local"
    assert cold["stats"]["events_replayed"] > 0, cold["stats"]

    warm_daemon = Daemon(tmp_path, "warm", store, "--keep-alive")
    try:
        warm, warm_status = warm_daemon.sweep()
        before = warm_daemon.metrics()
        lane, lane_status = warm_daemon.sweep()
        after = warm_daemon.metrics()
    finally:
        warm_daemon.stop()
    # The restart serves from the store: no replay, less time.
    assert warm["result"] == cold["result"], "warm restart diverged"
    assert warm["stats"]["store_hits"] > 0, warm["stats"]
    assert warm["stats"]["events_replayed"] == 0, warm["stats"]
    assert span(warm_status) < span(cold_status)
    # The re-submit rides the fast lane: nothing reaches the executor.
    assert lane_status["lane"] == "fastlane", lane_status
    assert (after["fastlane_sweeps"]
            - before.get("fastlane_sweeps", 0)) >= 1, (before, after)
    assert (after.get("executor_dispatches", 0)
            == before.get("executor_dispatches", 0)), (before, after)
    assert lane["stats"]["events_replayed"] == 0, lane["stats"]
    assert lane["stats"]["simulations"] == 0, lane["stats"]
    assert lane["result"] == warm["result"], "fast lane diverged"


def test_seeded_genetic_run_local_is_identical_across_reruns_and_pools():
    """A seeded genetic search, run twice serially and once over a
    2-worker pool, returns the same ``result`` payload (``stats``
    legitimately differs by worker count).  Any divergence — an
    unseeded draw, a timing-dependent RNG consumption order, an
    unstable sort — fails it."""
    request = ["run-local", "--app", "matmul", "--strategy", "genetic",
               "--budget", "16", "--seed", "7"]
    first = cli(*request)["result"]
    again = cli(*request)["result"]
    pooled = cli(*request, "--workers", "2")["result"]
    assert again == first
    assert pooled == first
