"""Run the tuning daemon with the benchmark's layer wrappers installed.

Usage, from the repository root::

    python3 perfbench/serve_traced.py LEDGER.json serve [serve options]

Everything after ``LEDGER.json`` goes to ``python -m repro.service``.
The wrappers of ``ledger.py`` are installed before the daemon starts;
when it shuts down (SIGTERM or SIGINT) the per-layer self time and
call counts are written to ``LEDGER.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402


def main(argv) -> int:
    path, service_argv = argv[0], argv[1:]
    book = ledger.Ledger()
    book.install()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(["repro.service"] + service_argv)
    finally:
        self_s, calls = book.totals()
        with open(path + ".tmp", "w") as handle:
            json.dump({"self_s": self_s, "calls": calls,
                       "missing": book.missing}, handle)
        os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
