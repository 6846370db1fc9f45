"""Entry points for the tuning service.

Usage::

    python -m repro.service serve [--host H] [--port P] [--apps a,b]
                                  [--workers N] [--store DIR]
                                  [--ready-file PATH] [--keep-alive]
    python -m repro.service submit --app NAME [request options]
    python -m repro.service sweep  --app NAME [request options]   # submit+wait
    python -m repro.service status|results|wait|cancel ID
    python -m repro.service healthz|metrics
    python -m repro.service run-local --app NAME [request options]

``serve`` listens on ``--port`` (default ``$REPRO_SERVICE_PORT`` or
8765; ``0`` picks an ephemeral port) and, with ``--ready-file``,
writes a small JSON document (url/port/pid) once the socket is bound —
scripts poll for that file instead of racing the bind.  ``run-local``
executes the request through the one-shot CLI path (a fresh engine, no
daemon) and prints the same payload shape as ``results``;
``tests/service/test_cli.py`` compares the two to pin daemon/CLI
bit-identity.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    SERVICE_PORT_ENV,
    RequestError,
    TuningService,
    parse_sweep_request,
    run_sweep,
)
from repro.tuning.strategies import RESTRICT_MODES, strategy_names

DEFAULT_PORT = 8765
DEFAULT_URL = "http://127.0.0.1:8765"


def _add_request_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", required=True,
                        help="application name (matmul, cp, sad, mri-fhd)")
    parser.add_argument("--strategy", default="pareto",
                        choices=strategy_names(), metavar="NAME",
                        help="search strategy (default: pareto); one of "
                             + ", ".join(strategy_names()))
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="sweep only the first N configurations")
    parser.add_argument("--configs", default=None, metavar="PATH",
                        help="JSON file holding an explicit configuration "
                             "subset (array of parameter objects)")
    parser.add_argument("--sample-size", type=int, default=None,
                        help="random strategy: configurations to sample")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic strategies")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="adaptive strategies: measurement budget "
                             "(default: 25%% of the valid space)")
    parser.add_argument("--restrict", default=None,
                        choices=RESTRICT_MODES,
                        help="adaptive strategies: candidate pool — the "
                             "full valid space or the Pareto subset")
    parser.add_argument("--screen-bandwidth-bound", action="store_true",
                        help="pareto strategy: screen bandwidth-bound "
                             "points before drawing the curve")
    parser.add_argument("--relative-tolerance", type=float, default=None,
                        help="pareto+cluster: metric clustering tolerance")
    parser.add_argument("--sim-overrides", default=None, metavar="JSON",
                        help="SimConfig overrides as a JSON object, e.g. "
                             "'{\"simulated_waves\": 8}'")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="timing chunk size (progress/cancel "
                             "granularity; identical results regardless)")


def _request_payload(options: argparse.Namespace) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "app": options.app, "strategy": options.strategy,
    }
    if options.limit is not None:
        payload["limit"] = options.limit
    if options.configs is not None:
        with open(options.configs) as handle:
            payload["configs"] = json.load(handle)
    if options.sample_size is not None:
        payload["sample_size"] = options.sample_size
    if options.seed is not None:
        payload["seed"] = options.seed
    if options.budget is not None:
        payload["budget"] = options.budget
    if options.restrict is not None:
        payload["restrict"] = options.restrict
    if options.screen_bandwidth_bound:
        payload["screen_bandwidth_bound"] = True
    if options.relative_tolerance is not None:
        payload["relative_tolerance"] = options.relative_tolerance
    if options.sim_overrides is not None:
        payload["sim_overrides"] = json.loads(options.sim_overrides)
    if options.chunk_size is not None:
        payload["chunk_size"] = options.chunk_size
    return payload


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived tuning daemon and its client.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help=f"listen port (default: ${SERVICE_PORT_ENV} "
                            f"or {DEFAULT_PORT}; 0 = ephemeral)")
    serve.add_argument("--apps", default=None,
                       help="comma-separated subset, e.g. 'cp,matmul'")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="simulation pool width per runtime "
                            "(default: $REPRO_WORKERS or 1)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="persistent result store (default: $REPRO_STORE)")
    serve.add_argument("--ready-file", default=None, metavar="PATH",
                       help="write {url,port,pid} JSON once listening")
    serve.add_argument("--keep-alive", action="store_true",
                       help="serve multiple requests per connection "
                            "(default: Connection: close)")

    for name, needs_id in (
        ("status", True), ("results", True), ("wait", True),
        ("cancel", True), ("healthz", False), ("metrics", False),
        ("list", False),
    ):
        sub = commands.add_parser(name)
        if needs_id:
            sub.add_argument("id", help="sweep id (e.g. sweep-1)")
        sub.add_argument("--url", default=DEFAULT_URL)
        sub.add_argument("--keep-alive", action="store_true",
                         help="reuse one connection across requests")
        if name == "wait":
            sub.add_argument("--timeout", type=float, default=600.0)
        if name == "metrics":
            sub.add_argument("--table", action="store_true",
                             help="print the fast-lane report table "
                                  "instead of raw JSON")

    for name in ("submit", "sweep"):
        sub = commands.add_parser(
            name,
            help="submit a sweep"
                 + (" and wait for its results" if name == "sweep" else ""),
        )
        sub.add_argument("--url", default=DEFAULT_URL)
        sub.add_argument("--timeout", type=float, default=600.0)
        sub.add_argument("--keep-alive", action="store_true",
                         help="reuse one connection across requests")
        _add_request_options(sub)

    local = commands.add_parser(
        "run-local",
        help="execute a request through the one-shot CLI path "
             "(no daemon) and print the equivalent results payload",
    )
    local.add_argument("--workers", type=int, default=None, metavar="N")
    local.add_argument("--store", default=None, metavar="DIR")
    _add_request_options(local)

    return parser.parse_args(argv[1:])


def _resolve_port(options) -> int:
    if options.port is not None:
        return options.port
    raw = os.environ.get(SERVICE_PORT_ENV)
    if raw is None or raw == "":
        return DEFAULT_PORT
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(
            f"{SERVICE_PORT_ENV}={raw!r} is not a valid port number"
        )


async def _serve(options) -> int:
    apps = None
    if options.apps:
        from repro.apps import all_applications

        every = all_applications()
        wanted = {name.strip() for name in options.apps.split(",")}
        unknown = wanted - {app.name for app in every}
        if unknown:
            print(f"unknown applications: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        apps = [app for app in every if app.name in wanted]
    service = TuningService(
        apps,
        workers=options.workers,
        store=options.store,
        keep_alive=options.keep_alive,
    )
    host, port = await service.start(options.host, _resolve_port(options))
    url = f"http://{host}:{port}"
    print(f"repro.service listening on {url}", flush=True)
    if options.ready_file:
        from repro.store import atomic_write_text

        atomic_write_text(
            options.ready_file,
            json.dumps({"url": url, "port": port, "pid": os.getpid()}),
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-Unix event loops
            pass
    await stop.wait()
    print("repro.service shutting down", flush=True)
    await service.close()
    return 0


def _run_local(options) -> int:
    from repro.apps import all_applications
    from repro.tuning.engine import ExecutionEngine

    apps_by_name = {app.name: app for app in all_applications()}
    try:
        request = parse_sweep_request(_request_payload(options), apps_by_name)
    except RequestError as error:
        print(str(error), file=sys.stderr)
        return 2
    base = apps_by_name[request.app_name]
    app = type(base)()
    if request.sim_overrides:
        app.sim_overrides = dict(request.sim_overrides)
    engine = ExecutionEngine.for_app(
        app, workers=options.workers, store=options.store,
    )
    try:
        payload = run_sweep(engine, request)
    finally:
        engine.close()
    stats = engine.stats.as_dict()
    print(json.dumps({"result": payload, "stats": stats},
                     indent=1, sort_keys=True))
    return 0


def _client_command(options) -> int:
    client = ServiceClient(
        options.url, keep_alive=getattr(options, "keep_alive", False)
    )
    command = options.command
    try:
        if command == "submit":
            payload = client.submit(_request_payload(options))
        elif command == "sweep":
            payload = client.sweep(
                _request_payload(options), timeout=options.timeout
            )
        elif command == "status":
            payload = client.status(options.id)
        elif command == "results":
            payload = client.results(options.id)
        elif command == "wait":
            payload = client.wait(options.id, timeout=options.timeout)
        elif command == "cancel":
            payload = client.cancel(options.id)
        elif command == "healthz":
            payload = client.healthz()
        elif command == "metrics":
            payload = client.metrics()
            if options.table:
                from repro.harness.tables import fastlane_rows, format_table

                print("Service fast lane")
                print(format_table(fastlane_rows(payload),
                                   ("counter", "value")))
                return 0
        elif command == "list":
            payload = client.list_sweeps()
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(command)
    except (ServiceError, TimeoutError, ConnectionError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 1
    finally:
        client.close()
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def main(argv) -> int:
    options = parse_args(argv)
    if options.command == "serve":
        return asyncio.run(_serve(options))
    if options.command == "run-local":
        return _run_local(options)
    return _client_command(options)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
