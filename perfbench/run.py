"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload prune-cold --seed 0 --seconds 27 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
per-layer self time and counts instead (see ``ledger.py``).  Inputs
come from ``--seed`` alone.  Every output is checked against an
answer key or an in-process oracle; wrong answers count as failures.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A line before it, starting ``{"header":``, records the source
revision, Python version, CPU count, seed, and the sample count of
every percentile.  ``perfbench/README.md`` says why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for the daemon's store, ready files and ledgers; one
#: directory per run, so runs in one checkout never share state
WORK = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
WORKLOAD_NAMES = ("prune-cold", "explore-cold", "service-mixed")
#: fresh processes timed per run, spread over it; setup_s is their median
SETUP_SAMPLES = 7


class Report:
    """Counts, failure reasons, metrics and the run header."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.header = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def source_revision():
    """The git commit if the checkout is a repository, and a digest of
    the package sources either way."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def declared_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    del frame
    # Unwind through the workloads' finally blocks, which stop the
    # daemons they started.
    sys.exit(128 + signum)


def main(argv) -> int:
    options = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    trace = bool(options.trace)
    report = Report()
    sha, digest = source_revision()
    report.header.update({
        "workload": options.workload, "seed": options.seed,
        "seconds": options.seconds, "trace": trace, "git_sha": sha,
        "src_digest": digest, "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    os.makedirs(WORK)
    try:
        if options.workload == "service-mixed":
            import service_mixed as workload
        else:
            import workloads as workload
        setup = workload.run(options.workload, options.seed, options.seconds,
                             trace, report, WORK, child_env(), SETUP_SAMPLES)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:  # another run's directory is still there
            pass
    if not trace:
        report.metric("setup_s", statistics.median(setup), "s")
        report.header["setup_samples"] = len(setup)

    declared = declared_metrics(trace)
    produced = {name: m["unit"] for name, m in report.metrics.items()}
    if produced != declared:
        print(f"perfbench: metrics {sorted(produced)} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 3
    report.header["failures"] = report.failures
    print(json.dumps({"header": report.header}, sort_keys=True))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
