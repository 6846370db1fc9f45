"""The ``service-mixed`` workload: a daemon under a mixed warm/cold stream.

A fresh ``python -m repro.service serve --keep-alive --workers 1
--store DIR`` serves two closed-loop clients (two keep-alive
connections from this process, which shares one CPU with the daemon).
The inputs are the four apps' spaces (SAD cut to the same seeded
sample as ``prune-cold``), cut into chunks of one configuration each;
alternate configurations of each space make up two halves, and the
seed orders each half.  Each request is a Pareto sweep over one
chunk's explicit ``configs``.  Before the timed phase, each half is
swept in-process into a store of its own.  Two daemons then serve in
turn: the first starts with the first half stored, the second with the
second half, so each run touches every chunk once cold and once from
the store.

Every request has one of three kinds, and percentiles are only taken
within a kind:

* ``cold`` — first touch of a chunk nobody has measured: the executor
  path with the static stage, replay and store writes;
* ``store`` — first touch of a stored chunk: the executor path again,
  but every artifact is read from the store and nothing is replayed;
* ``warm`` — a re-submit of a chunk this client has already had
  answered: the daemon's fast lane, on the event loop.

First touches are spread evenly through each client's stream; every
other request re-submits a chunk the client touched before.  A warm
request that lands while the other client's first touch holds the
interpreter shows head-of-line blocking in ``warm_p99_ms``.

Each results payload must be byte-equal to the in-process oracle for
the same request (``run_sweep`` on a fresh engine), warm requests must
ride the fast lane, and store first touches must replay nothing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.apps import all_applications
from repro.service.client import ServiceClient
from repro.service.daemon import parse_sweep_request, run_sweep
from repro.tuning.engine import ExecutionEngine

import ledger as ledger_module
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLIENTS = 2
#: status poll interval: ServiceClient.wait's 0.2 s default would
#: floor every warm latency at 200 ms
POLL_S = 0.001
#: requests per second of --seconds (both clients, both daemons);
#: sized so the stream takes about --seconds on a 2-core machine
REQUESTS_PER_S = 200
#: warm requests per run at least, so p99 has ten samples beyond it
MIN_WARM = 1000
#: parts of the stream between speed-loop samples
SEGMENTS = 30
APP_ORDER = ("matmul", "cp", "sad", "mri-fhd")


def make_chunks(seed):
    """Two halves of the chunks, as lists of sweep requests."""
    rng = random.Random(seed)
    apps = {app.name: app for app in all_applications()}
    invalid = workloads.load_expected()["invalid"]
    halves = ([], [])
    for name in APP_ORDER:
        configs = [dict(c) for c in apps[name].space()]
        if name == "sad":
            keep = workloads.sad_sample_indices(configs, seed)
            configs = [configs[i] for i in keep]
        # A sweep with no configuration that can launch has no answer
        # (the daemon fails it), so each configuration that cannot
        # launch joins the chunk of one that can.
        doomed = [c for c in configs if c in invalid[name]]
        configs = [c for c in configs if c not in invalid[name]]
        chunks = [{"app": name, "strategy": "pareto", "configs": [config]}
                  for config in configs]
        for config in doomed:
            rng.choice(chunks)["configs"].append(config)
        # Alternate configurations of the space go to each half, so
        # which configurations share a store (and reuse each other's
        # simulations) does not depend on the seed; it orders them.
        halves[0].extend(chunks[0::2])
        halves[1].extend(chunks[1::2])
    for half in halves:
        rng.shuffle(half)
    return halves


def make_streams(seed, stored, fresh, total_requests):
    """Per client, a list of ``(kind, chunk index)``, given the indices
    of the ``stored`` and ``fresh`` chunks.  Clients own disjoint
    chunks, so a warm re-submit always follows its chunk's answered
    first touch."""
    rng = random.Random(seed + 1)
    streams = []
    per_client = max(total_requests // CLIENTS, 1)
    for client in range(CLIENTS):
        owned = ([("store", i) for i in stored[client::CLIENTS]]
                 + [("cold", i) for i in fresh[client::CLIENTS]])
        rng.shuffle(owned)
        length = max(per_client, len(owned))
        firsts = {length * k // len(owned): item for k, item in enumerate(owned)}
        touched, stream = [], []
        for position in range(length):
            if position in firsts:
                stream.append(firsts[position])
                touched.append(firsts[position][1])
            else:
                stream.append(("warm", rng.choice(touched)))
        streams.append(stream)
    return streams


def oracle_payloads(requests, store=None):
    """In-process answers (canonical JSON) for each request, through
    the one-shot path: ``run_sweep`` on one engine per app."""
    apps = {app.name: app for app in all_applications()}
    engines = {}
    answers = []
    try:
        for request in requests:
            sweep = parse_sweep_request(request, apps)
            engine = engines.get(sweep.app_name)
            if engine is None:
                app = type(apps[sweep.app_name])()
                engine = ExecutionEngine.for_app(app, workers=1, store=store)
                engines[sweep.app_name] = engine
            answers.append(json.dumps(run_sweep(engine, sweep), sort_keys=True))
    finally:
        for engine in engines.values():
            engine.close()
    return answers


class Daemon:
    """One ``serve`` process, optionally under the traced launcher."""

    def __init__(self, work, store, env, tag, ledger_path=None):
        self.ready_file = os.path.join(work, f"ready-{tag}.json")
        command = ["serve", "--keep-alive", "--workers", "1",
                   "--store", store, "--port", "0",
                   "--ready-file", self.ready_file]
        if ledger_path is None:
            command = [sys.executable, "-m", "repro.service"] + command
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       ledger_path] + command
        self.log_path = os.path.join(work, f"daemon-{tag}.log")
        self.log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        deadline = started + 60
        while not os.path.exists(self.ready_file):
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                with open(self.log_path, errors="replace") as handle:
                    tail = handle.read()[-2000:]
                raise RuntimeError(f"daemon did not become ready:\n{tail}")
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - started
        with open(self.ready_file) as handle:
            self.url = json.load(handle)["url"]

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class Record:
    """What one request leaves behind (not its payload: a stream has
    tens of thousands of them)."""

    __slots__ = ("kind", "chunk", "latency", "segment", "scaled", "status",
                 "problem")

    def __init__(self, kind, chunk, latency, segment, status, problem):
        self.kind, self.chunk, self.latency = kind, chunk, latency
        self.segment, self.scaled = segment, None
        self.status, self.problem = status, problem


def judge(kind, result, status, answer):
    """Why a request's answer is wrong, or ``None``."""
    if result is None:
        return status.get("error", "no result")
    if json.dumps(result, sort_keys=True) != answer:
        return "payload differs from the in-process oracle"
    if kind == "warm" and status.get("lane") != "fastlane":
        return f"warm request served on lane {status.get('lane')!r}"
    if kind == "store" and status["stats"]["events_replayed"] != 0:
        return "store first touch replayed events"
    return None


def drive(url, streams, requests, answers, clock):
    """Run each client's stream over its own keep-alive connection.

    The streams are cut into ``SEGMENTS`` parts; between two parts
    both clients wait while the speed loop runs on an idle daemon, and
    each request's latency is scaled by its part's factor.  Returns one
    :class:`Record` per request, and the phase's raw and scaled
    seconds.  Answers are checked as they arrive, outside each latency.
    """
    records = [[] for _ in streams]
    errors = []
    walls, factors = [], []
    marks = [time.perf_counter()]

    def segment_done():
        walls.append(time.perf_counter() - marks[-1])
        factors.append(clock.factor())
        marks.append(time.perf_counter())

    barrier = threading.Barrier(len(streams), action=segment_done)

    def client_loop(index):
        client = ServiceClient(url, keep_alive=True)
        stream = streams[index]
        try:
            for segment in range(SEGMENTS):
                low = segment * len(stream) // SEGMENTS
                high = (segment + 1) * len(stream) // SEGMENTS
                for kind, chunk in stream[low:high]:
                    started = time.perf_counter()
                    try:
                        job = client.submit(requests[chunk])
                        status = client.wait(job["id"], interval=POLL_S)
                        result = client.results(job["id"])["result"]
                    except Exception as error:  # noqa: BLE001 - counted
                        result, status = None, {"error": repr(error)}
                    latency = time.perf_counter() - started
                    problem = judge(kind, result, status, answers[chunk])
                    status.pop("stats", None)
                    status.pop("request", None)
                    records[index].append(Record(
                        kind, chunk, latency, segment, status, problem))
                barrier.wait(timeout=300)
        except BaseException as error:
            errors.append(error)
            barrier.abort()
            raise
        finally:
            client.close()

    # Daemon threads: a run stopped by a signal must not wait on them.
    threads = [threading.Thread(target=client_loop, args=(i,), daemon=True)
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    flat = [record for client in records for record in client]
    for record in flat:
        record.scaled = record.latency * factors[record.segment]
    scaled = sum(wall * factor for wall, factor in zip(walls, factors))
    return flat, sum(walls), scaled


def latencies(records, kind):
    """Latencies of one kind of request, at reference speed."""
    return [record.scaled for record in records if record.kind == kind]


def run(workload, seed, seconds, trace, report, work, env, setup_samples):
    """Run the workload; returns the daemon set-up times."""
    del workload
    # The clients and the daemon share one CPU (the daemon inherits
    # this process's affinity).  On two, every request wakes the other
    # CPU, and on a shared VM those wake-ups slow down far more than
    # the speed loop does: the stream's wall time swung 28% between
    # runs while the loop moved 11%.  On one CPU the loop tracks it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    first, second = make_chunks(seed)
    requests = first + second
    halves = (list(range(len(first))), list(range(len(first), len(requests))))

    # Outside the timed phase: sweep each half in-process into a store
    # of its own; those sweeps are also the oracle's answers.
    templates = [os.path.join(work, f"store-template-{side}") for side in (0, 1)]
    answers = (oracle_payloads(first, store=templates[0])
               + oracle_payloads(second, store=templates[1]))

    # Two fresh daemons serve one after another, half the seconds
    # each.  The first starts with one half in its store and touches
    # the other half cold; the second the other way round, so every
    # run times every configuration cold and from the store, and the
    # seed only changes their order (and SAD's sample).  A traced run serves the same stream twice,
    # untraced and then traced, and the pair gives the overhead.
    budget = seconds / 2
    total = max(int(budget * REQUESTS_PER_S), MIN_WARM // 2 + len(requests))
    if trace:
        rounds = [(False, 0, make_streams(seed, *halves, total)),
                  (True, 0, make_streams(seed, *halves, total))]
    else:
        rounds = [(False, 0, make_streams(seed, *halves, total)),
                  (False, 1, make_streams(seed + 1, *halves[::-1], total))]
    # Set-up is timed on fresh daemons before, between and after the
    # rounds, so its median does not rest on one moment of this
    # machine's speed; the last one started before a round serves it.
    spare = 0 if trace else setup_samples // (len(rounds) + 1)
    results = []
    setup = []
    clock = speed.Speed()

    def spawn(tag, store, ledger_path=None):
        daemon = Daemon(work, store, env, tag, ledger_path)
        setup.append(daemon.setup_s * clock.factor())
        return daemon

    for index, (traced, side, streams) in enumerate(rounds):
        store = os.path.join(work, f"store-{index}")
        shutil.copytree(templates[side], store)
        ledger_path = os.path.join(work, "ledger.json") if traced else None
        for sample in range(spare):
            spawn(f"{index}-{sample}", store).stop()
        daemon = spawn(f"{index}-serve", store, ledger_path)
        try:
            records, wall, scaled = drive(
                daemon.url, streams, requests, answers, clock)
            server = ServiceClient(daemon.url).metrics()
            peak = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        ledger = None
        if traced:
            with open(ledger_path) as handle:
                ledger = json.load(handle)
        results.append((records, wall, scaled, server, peak, ledger))
    if not trace:
        for sample in range(setup_samples - len(setup)):
            spawn(f"after-{sample}", store).stop()

    for records, *_rest in results:
        for record in records:
            report.attempted += 1
            if record.problem is not None:
                report.fail(f"{record.kind} chunk {record.chunk}: "
                            f"{record.problem}")

    # Untraced, every round counts; traced, the traced round alone.
    measured = results[-1:] if trace else results
    records = [record for result in measured for record in result[0]]
    wall = sum(result[1] for result in measured)
    scaled = sum(result[2] for result in measured)
    warm, cold = latencies(records, "warm"), latencies(records, "cold")
    stored_first = latencies(records, "store")
    report.header.update({
        "rounds": len(measured),
        "warm_samples": len(warm), "cold_samples": len(cold),
        "store_samples": len(stored_first), "chunks": len(requests),
        "measured_s": wall, "raw_sweeps_per_s": len(records) / wall,
        "speed_loop_ms": statistics.median(clock.samples) * 1e3,
        "store_p50_ms": workloads.percentile(stored_first, 50) * 1e3,
        "cold_p50_ms_by_app": {
            name: workloads.percentile(
                [r.scaled for r in records if r.kind == "cold"
                 and requests[r.chunk]["app"] == name], 50) * 1e3
            for name in APP_ORDER},
    })
    if trace:
        _, _, scaled, server, _, ledger = results[-1]
        service_layers(report, records, scaled, server, ledger,
                       results[0][2])
        return setup
    configs = sum(len(requests[record.chunk]["configs"]) for record in records)
    report.metric("configs_per_s", configs / scaled, "1/s")
    report.metric("sweeps_per_s", len(records) / scaled, "1/s")
    report.metric("warm_p50_ms", workloads.percentile(warm, 50) * 1e3, "ms")
    report.metric("warm_p99_ms", workloads.percentile(warm, 99) * 1e3, "ms")
    report.metric("cold_p50_ms", workloads.percentile(cold, 50) * 1e3, "ms")
    report.metric("peak_rss_mb", max(result[4] for result in results), "MB")
    return setup


def mean_ms(values):
    return statistics.fmean(values) * 1e3 if values else 0.0


def service_layers(report, records, scaled, server, ledger, untraced_scaled):
    """Per-layer rows of the traced daemon: its ledger, the split of
    each request's client latency, and its /metrics counters."""
    self_s, calls = ledger["self_s"], ledger["calls"]
    for layer in ledger_module.LAYERS:
        report.metric(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
        report.metric(f"{layer}.calls", calls.get(layer, 0), "count")
    if ledger["missing"]:
        report.header["unwrapped"] = ledger["missing"]

    queue, run_all, client = [], [], []
    lanes = {"fastlane": [], "engine": []}
    for record in records:
        status = record.status
        if status.get("started") is None:
            continue
        waited = status["started"] - status["created"]
        ran = status["finished"] - status["started"]
        queue.append(waited)
        run_all.append(ran)
        client.append(record.latency - waited - ran)
        lanes.setdefault(status.get("lane"), []).append(ran)
    report.metric("service.queue_wait_ms", mean_ms(queue), "ms")
    report.metric("service.run_ms", mean_ms(run_all), "ms")
    report.metric("service.run_ms.fastlane", mean_ms(lanes["fastlane"]), "ms")
    report.metric("service.run_ms.engine", mean_ms(lanes["engine"]), "ms")
    report.metric("service.client_ms", mean_ms(client), "ms")
    report.header["service_latency_ms"] = mean_ms(
        [record.latency for record in records])
    report.header["negative_client_ms"] = sum(1 for c in client if c < 0)
    report.metric("unattributed_s", sum(run_all) - sum(self_s.values()), "s")
    report.metric("trace_overhead", scaled / untraced_scaled - 1.0, "ratio")

    counters = server["service"]
    sweeps = counters.get("sweeps_completed", 0)
    report.metric("service.fastlane_share",
                 counters.get("fastlane_sweeps", 0) / sweeps if sweeps else 0.0,
                 "ratio")
    report.metric("service.executor_dispatches",
                 counters.get("executor_dispatches", 0), "count")
    report.metric("service.keepalive_reuses",
                 counters.get("keepalive_reuses", 0), "count")
    decoded = server["decoded_cache"]
    lookups = decoded["decoded_cache_hits"] + decoded["decoded_cache_misses"]
    report.metric("service.decoded_hit_ratio",
                 decoded["decoded_cache_hits"] / lookups if lookups else 0.0,
                 "ratio")

    totals = {}
    for stats in server["runtimes"].values():
        for name, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[name] = totals.get(name, 0) + value
    report.metric("store.hits", totals.get("store_hits", 0), "count")
    report.metric("store.misses", totals.get("store_misses", 0), "count")
    report.metric("store.corrupt", totals.get("store_corrupt", 0), "count")
    events = totals.get("events_replayed", 0)
    report.metric("sim.events_replayed", events, "count")
    report.metric("sim.blocks_replayed", totals.get("blocks_replayed", 0), "count")
    report.metric("sim.blocks_extrapolated",
                 totals.get("blocks_extrapolated", 0), "count")
    compiles = totals.get("compile_hits", 0) + totals.get("compile_evaluations", 0)
    report.metric("sim.compile_hit_ratio",
                 totals.get("compile_hits", 0) / compiles if compiles else 0.0,
                 "ratio")
    report.metric("sim.sm.ns_per_event",
                 self_s.get("sim.sm", 0.0) / events * 1e9 if events else 0.0,
                 "ns")
