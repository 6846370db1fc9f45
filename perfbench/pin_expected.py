"""Regenerate ``perfbench/expected.json``, the benchmark's answer key.

Run from the repository root (takes about a minute)::

    PYTHONPATH=src python3 perfbench/pin_expected.py

It records, from one exhaustive exploration per application:

* the optimum (configuration and seconds, at full precision) and the
  replayed event count of matmul, cp and mri-fhd;
* every app's configurations that cannot launch;
* SAD's whole space — validity, efficiency, utilization and seconds of
  every configuration — from which the benchmark derives the expected
  answer for the seeded SAD sample of any seed without simulating.

Only rerun it when the simulator's answers are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.apps import all_applications  # noqa: E402
from repro.tuning.search import full_exploration  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    expected = {"optima": {}, "events_replayed": {}, "invalid": {},
                "sad_space": []}
    for app in all_applications():
        engine = app.search_engine(workers=1)
        result = full_exploration(list(app.space()), engine=engine)
        expected["optima"][app.name] = {
            "config": dict(result.best.config),
            "seconds": result.best.seconds,
        }
        expected["events_replayed"][app.name] = engine.stats.events_replayed
        expected["invalid"][app.name] = [
            dict(entry.config) for entry in result.evaluated
            if not entry.is_valid]
        if app.name == "sad":
            expected["sad_space"] = [
                {
                    "config": dict(entry.config),
                    "efficiency": entry.metrics.efficiency if entry.is_valid else None,
                    "utilization": entry.metrics.utilization if entry.is_valid else None,
                    "seconds": entry.seconds if entry.is_valid else None,
                }
                for entry in result.evaluated
            ]
        print(app.name, dict(result.best.config), repr(result.best.seconds),
              flush=True)
    del expected["optima"]["sad"], expected["events_replayed"]["sad"]
    sample = workloads.sad_sample_indices(
        [row["config"] for row in expected["sad_space"]], workloads.DEFAULT_SEED)
    expected["sad_default_seed_optimum"] = workloads.sad_sample_answer(
        expected["sad_space"], sample)
    rows = ",\n".join(json.dumps(row, sort_keys=True)
                      for row in expected.pop("sad_space"))
    head = json.dumps(expected, indent=1, sort_keys=True)
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        handle.write(head[:-2] + ',\n "sad_space": [\n' + rows + "\n ]\n}\n")


if __name__ == "__main__":
    main()
