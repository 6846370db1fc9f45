"""The in-process workloads: ``prune-cold`` and ``explore-cold``.

Both model a user who has nothing cached.  Each measured *pass* builds
a fresh application and a fresh ``ExecutionEngine`` (one worker, no
result store) per app and tunes the app's space once; passes repeat
until the run's seconds are spent, and the whole phase is timed.  The
seed picks the order of the apps within a pass and, on ``prune-cold``,
the SAD sample.

After each cold pass the same searches are re-run on that pass's (now
warm) engines: the answer a user gets when asking a tuned engine
again, as the harness does when it runs several strategies over one
engine.  One re-query of the whole suite is one warm sample, timed in
CPU time; one cold pass is one cold sample.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from repro.apps import all_applications
from repro.tuning.search import full_exploration, pareto_search

import ledger as ledger_module
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
#: SAD configurations kept per seed: its full static stage (828
#: configurations, ~25 s) would otherwise make up most of the run
SAD_SAMPLE = 32
#: warm re-queries of the whole suite per run (p99 needs ten or more
#: samples beyond it), WARM_PER_S per second of the pass before them
WARM_SAMPLES = 3000
WARM_PER_S = 100
#: warm re-queries per speed-loop sample
WARM_BATCH = 200

#: what a fresh in-process user pays before the first search
SETUP_CHILD = """
import sys
from repro.apps import all_applications
from repro.tuning.search import full_exploration, pareto_search
for app in all_applications():
    list(app.space())
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

WORKLOADS = {
    # the paper's method: static metrics everywhere, time the Pareto set
    "prune-cold": {"apps": ["matmul", "cp", "sad", "mri-fhd"],
                   "search": pareto_search},
    # the baseline it prunes against; SAD's static stage would bury
    # the replay, so SAD is left out
    "explore-cold": {"apps": ["matmul", "cp", "mri-fhd"],
                     "search": full_exploration},
}


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


def _sad_cost_rank(config) -> int:
    """Static-stage cost grows with the unrolled kernel's size."""
    return (config["unroll_search"] * config["unroll_rows"]
            * config["unroll_cols"] * config["tiling"])


def sad_sample_indices(configs, seed: int):
    """Positions (in space order) of the seeded SAD sample.

    Stratified by :func:`_sad_cost_rank`: the space is ordered by it
    and cut into ``SAD_SAMPLE`` equal strata, one configuration drawn
    from each.  A plain random sample's static-stage cost varies about
    19% from seed to seed; this one about 10%, so the seed changes the
    inputs without swinging the workload's size.
    """
    size = len(configs)
    order = sorted(range(size), key=lambda i: (_sad_cost_rank(configs[i]), i))
    rng = random.Random(seed)
    picks = []
    for stratum in range(SAD_SAMPLE):
        low = stratum * size // SAD_SAMPLE
        high = (stratum + 1) * size // SAD_SAMPLE
        picks.append(order[rng.randrange(low, high)])
    return sorted(picks)


def _dominates(a, b) -> bool:
    return (a["efficiency"] >= b["efficiency"]
            and a["utilization"] >= b["utilization"]
            and (a["efficiency"] > b["efficiency"]
                 or a["utilization"] > b["utilization"]))


def sad_sample_answer(space_rows, sample):
    """What ``pareto_search`` must return on the sample: the fastest
    configuration of the sample's Pareto set (the first, on ties),
    computed from the pinned table without simulating.  The Pareto set
    of a random sample need not hold the sample's optimum, so this is
    not always the sample's fastest configuration."""
    valid = [space_rows[i] for i in sample
             if space_rows[i]["seconds"] is not None]
    front = [row for row in valid
             if not any(_dominates(other, row) for other in valid)]
    best = min(front, key=lambda row: row["seconds"])
    return {"config": best["config"], "seconds": best["seconds"]}


def plan(name: str, seed: int, expected):
    """The apps of one pass, in seeded order, each with its
    configuration filter and the answer its search must give."""
    spec = WORKLOADS[name]
    order = list(spec["apps"])
    random.Random(seed).shuffle(order)
    items = []
    for app_name in order:
        subset = None
        answer = expected["optima"].get(app_name)
        if app_name == "sad":
            rows = expected["sad_space"]
            subset = sad_sample_indices([row["config"] for row in rows], seed)
            answer = sad_sample_answer(rows, subset)
            if seed == DEFAULT_SEED and answer != expected["sad_default_seed_optimum"]:
                raise SystemExit("expected.json: the pinned SAD entry does "
                                 "not match its own space table")
        items.append((app_name, subset, answer))
    return items


def _run_app(app_class, subset, search):
    app = app_class()
    configs = list(app.space())
    if subset is not None:
        configs = [configs[i] for i in subset]
    engine = app.search_engine(workers=1)
    return app, configs, engine, search(configs, engine=engine)


def _check(app_name, app, result, answer, engine, expected, workload):
    """Failure reasons for one search (an empty list when correct)."""
    problems = []
    got = {"config": dict(result.best.config), "seconds": result.best.seconds}
    if got != answer:
        problems.append(f"{app_name}: best {got} != expected {answer}")
    if workload == "explore-cold":
        events = engine.stats.events_replayed
        pinned = expected["events_replayed"][app_name]
        if events != pinned:
            problems.append(f"{app_name}: events_replayed {events} != {pinned}")
    if app_name == "sad":
        # The sample's answer comes from the pinned table, so the
        # space it was drawn from must be the table's.
        space = [row["config"] for row in expected["sad_space"]]
        if [dict(config) for config in app.space()] != space:
            problems.append("sad: space differs from the pinned table")
    return problems


def setup_sample(root, env):
    """Seconds from launching a fresh interpreter until it has imported
    the package and built every application and its space."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CHILD], env=env,
                             cwd=root, stdout=subprocess.PIPE)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - started
    child.stdout.close()
    if child.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up child failed")
    return elapsed


def run(workload, seed, seconds, trace, report, work, env, setup_samples):
    """Run the workload; returns the set-up times (none when traced)."""
    del work
    root = os.path.dirname(HERE)
    expected = load_expected()
    items = plan(workload, seed, expected)
    classes = {app.name: type(app) for app in all_applications()}
    search = WORKLOADS[workload]["search"]
    ledger = ledger_module.Ledger() if trace else None
    clock = speed.Speed()

    # Per pass, traced or not: raw seconds and seconds at reference speed.
    passes = {False: [], True: []}
    configs_done = sweeps_done = 0
    counts = dict.fromkeys(COUNTED, 0)
    setup, warm = [], []
    # Only the searches are timed.  Set-up samples and warm re-queries
    # run between passes, so that each spreads over the whole run.
    while (sum(raw for raw, _ in passes[False] + passes[True]) < seconds
           or (trace and not passes[True])):
        # Traced runs alternate untraced and traced passes of the same
        # work; the pair gives the tracing overhead.
        traced = trace and len(passes[False]) > len(passes[True])
        raw_pass = scaled_pass = 0.0
        tuned = []
        for app_name, subset, answer in items:
            report.attempted += 1
            if traced:
                ledger.install()
            started = time.perf_counter()
            try:
                app, configs, engine, result = _run_app(
                    classes[app_name], subset, search)
            except Exception as error:  # noqa: BLE001 - counted, reported
                report.fail(f"{app_name}: {type(error).__name__}: {error}")
                continue
            finally:
                elapsed = time.perf_counter() - started
                if traced:
                    ledger.uninstall()
                raw_pass += elapsed
                scaled_pass += elapsed * clock.factor()
            engine.close()
            for problem in _check(app_name, app, result, answer, engine,
                                  expected, workload):
                report.fail(problem)
            configs_done += len(configs)
            sweeps_done += 1
            for name in COUNTED:
                counts[name] += getattr(engine.stats, name)
            tuned.append((app_name, configs, engine, answer))
        passes[traced].append((raw_pass, scaled_pass))
        if not trace:
            setup.append(setup_sample(root, env) * clock.factor())
            warm += _requery(tuned, search, int(raw_pass * WARM_PER_S),
                             report, clock)
    every = passes[False] + passes[True]
    raw = sum(raw for raw, _ in every)
    scaled = sum(scaled for _, scaled in every)
    report.header.update({
        "passes": len(every), "measured_s": raw,
        "configs_per_pass": configs_done // len(every),
        "raw_configs_per_s": configs_done / raw,
        "speed_loop_ms": statistics.median(clock.samples) * 1e3,
    })

    if trace:
        per_pass = {name: value / len(every) for name, value in counts.items()}
        layers_per_pass(report, ledger, passes, per_pass)
        return setup

    while len(setup) < setup_samples:
        setup.append(setup_sample(root, env) * clock.factor())
    warm += _requery(tuned, search, WARM_SAMPLES - len(warm), report, clock)
    warm = [latency * clock.smoothed(mark) for mark, latency in warm]
    cold = [scaled for _, scaled in passes[False]]
    report.header.update({"warm_samples": len(warm), "cold_samples": len(cold)})
    report.metric("configs_per_s", configs_done / scaled, "1/s")
    report.metric("sweeps_per_s", sweeps_done / scaled, "1/s")
    report.metric("warm_p50_ms", percentile(warm, 50) * 1e3, "ms")
    report.metric("warm_p99_ms", percentile(warm, 99) * 1e3, "ms")
    report.metric("cold_p50_ms", percentile(cold, 50) * 1e3, "ms")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.metric("peak_rss_mb", peak_kb / 1024.0, "MB")
    return setup


def _requery(tuned, search, count, report, clock):
    """Re-run the whole suite's searches ``count`` times on tuned
    engines; returns ``(mark, seconds)`` per re-query, where ``mark``
    is the speed-loop sample taken after its batch of ``WARM_BATCH``.

    A re-query is timed in this thread's CPU time.  It takes about a
    millisecond and never waits, so on a shared machine its wall time
    has a tail made of other processes' preemptions: with a busy
    process sharing the CPU, the wall-clock p99 rose from 2.6 to 5.5 ms
    and the CPU-time p99 stayed at 1.9-2.6 ms."""
    timed = []
    for low in range(0, max(count, 0), WARM_BATCH):
        batch = []
        for _ in range(min(WARM_BATCH, count - low)):
            started = time.thread_time()
            bests = [(app_name, search(configs, engine=engine).best, answer)
                     for app_name, configs, engine, answer in tuned]
            batch.append(time.thread_time() - started)
            for app_name, best, answer in bests:
                report.attempted += 1
                got = {"config": dict(best.config), "seconds": best.seconds}
                if got != answer:
                    report.fail(f"{app_name} warm: best {got} != {answer}")
        mark = clock.mark()
        timed += [(mark, latency) for latency in batch]
    return timed


#: EngineStats counters summed over every search of a run
COUNTED = ("events_replayed", "blocks_replayed", "blocks_extrapolated",
           "compile_hits", "compile_evaluations")


def layers_per_pass(report, ledger, passes, counts):
    """Per traced pass: each layer's self time and calls, the traced
    time no layer accounts for, and the counters of one pass."""
    traced = len(passes[True])
    traced_wall = sum(raw for raw, _ in passes[True])
    self_s, calls = ledger.totals()
    for layer in ledger_module.LAYERS:
        report.metric(f"{layer}.self_s", self_s[layer] / traced, "s")
        report.metric(f"{layer}.calls", calls[layer] / traced, "count")
    attributed = sum(self_s.values())
    report.metric("unattributed_s", (traced_wall - attributed) / traced, "s")
    report.header["attributed_share"] = attributed / traced_wall
    if ledger.missing:
        report.header["unwrapped"] = ledger.missing
    # At reference speed, so the machine's drift between the two
    # passes of a pair does not pass for tracing cost.
    untraced = sum(scaled for _, scaled in passes[False][:traced])
    report.metric("trace_overhead",
                 sum(scaled for _, scaled in passes[True]) / untraced - 1.0,
                 "ratio")

    events = counts["events_replayed"]
    report.metric("sim.events_replayed", events, "count")
    report.metric("sim.blocks_replayed", counts["blocks_replayed"], "count")
    report.metric("sim.blocks_extrapolated", counts["blocks_extrapolated"],
                 "count")
    compiles = counts["compile_hits"] + counts["compile_evaluations"]
    report.metric("sim.compile_hit_ratio",
                 counts["compile_hits"] / compiles if compiles else 0.0,
                 "ratio")
    sm_s = self_s["sim.sm"] / traced
    report.metric("sim.sm.ns_per_event",
                 sm_s / events * 1e9 if events else 0.0, "ns")
    for name, unit in SERVICE_ONLY:
        report.metric(name, 0.0, unit)


#: per-layer metrics only the daemon workload produces
SERVICE_ONLY = [
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.corrupt", "count"),
    ("service.queue_wait_ms", "ms"), ("service.run_ms", "ms"),
    ("service.run_ms.fastlane", "ms"), ("service.run_ms.engine", "ms"),
    ("service.client_ms", "ms"), ("service.fastlane_share", "ratio"),
    ("service.executor_dispatches", "count"),
    ("service.decoded_hit_ratio", "ratio"),
    ("service.keepalive_reuses", "count"),
]


def percentile(values, q):
    """The q-th percentile of a list (``statistics.quantiles``)."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]
