"""Minimal asyncio HTTP/1.1 framing (stdlib only — no new deps).

The daemon needs exactly enough HTTP to speak JSON over a socket:
request-line + header parsing with hard limits, ``Content-Length``
bodies, ``{param}`` path routing, and explicit connection framing.
``Connection: close`` (one request per connection) stays the default —
a tuning sweep takes seconds to minutes, so its submit costs nothing —
but a *polling* client hammers ``/sweeps/{id}`` every 200ms, and for
that :func:`serve` accepts ``keep_alive=True``: bounded requests per
connection (``max_requests``), correct ``Content-Length`` framing on
every response, per-request enforcement of all the parse limits, and
an immediate close after any framing error (the stream position can no
longer be trusted) or unhandled exception.  Handler-level
:class:`HTTPError` replies (404/405/validation 400s) keep the
connection open — the framing is intact, only the request was wrong.
Anything fancier (chunked encoding, pipelining, TLS) is deliberately
out of scope; put a real proxy in front if you need it.  A request
with any ``Transfer-Encoding`` gets a 501 framing error rather than a
guessed body length.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_KEEPALIVE_REQUESTS",
    "HTTPError",
    "KEEPALIVE_COUNTERS",
    "Request",
    "Response",
    "Router",
    "json_response",
    "serve",
]

#: request-line and single-header byte limits (far above any legal use)
MAX_LINE_BYTES = 8192
MAX_HEADER_COUNT = 100
#: default request-body bound; sweep submissions are small JSON
MAX_BODY_BYTES = 8 * 1024 * 1024
#: with ``keep_alive``, how many requests one connection may carry
#: before the server closes it (bounds per-connection state lifetime)
DEFAULT_KEEPALIVE_REQUESTS = 100
#: counters :func:`serve` keeps in a caller's registry, zero-filled:
#: keep-alive connections opened, and requests served on one after
#: its first
KEEPALIVE_COUNTERS = {
    "keepalive_connections": 0,
    "keepalive_reuses": 0,
}

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class HTTPError(Exception):
    """An error with an HTTP status; handlers raise it to reply."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclasses.dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """Decode the body as JSON; a 400 names what was wrong."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, f"request body is not valid JSON: {error}")

    def wants_close(self) -> bool:
        """Whether the client asked for ``Connection: close``."""
        return self.headers.get("connection", "").lower() == "close"


@dataclasses.dataclass
class Response:
    """One HTTP response (bytes body; see :func:`json_response`)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"

    def encode(self, close: bool = True) -> bytes:
        connection = "close" if close else "keep-alive"
        reason = _REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + self.body


def json_response(payload: Any, status: int = 200) -> Response:
    """A JSON response; keys stay sorted so payloads diff cleanly."""
    body = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
    return Response(status=status, body=body + b"\n")


Handler = Callable[..., Awaitable[Response]]


class Router:
    """Method + path-pattern dispatch with ``{param}`` segments."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(pattern.strip("/").split("/")) if pattern != "/" else ()
        self._routes.append((method.upper(), segments, handler))

    def resolve(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        """The handler and path parameters for one request.

        Raises a 404 when no pattern matches the path, a 405 when a
        pattern matches but not with this method.
        """
        segments = tuple(path.strip("/").split("/")) if path != "/" else ()
        path_matched = False
        for route_method, pattern, handler in self._routes:
            params = _match(pattern, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return handler, params
        if path_matched:
            raise HTTPError(405, f"method {method} not allowed for {path}")
        raise HTTPError(404, f"no route for {path}")


def _match(
    pattern: Tuple[str, ...], segments: Tuple[str, ...]
) -> Optional[Dict[str, str]]:
    if len(pattern) != len(segments):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = unquote(actual)
        elif expected != actual:
            return None
    return params


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off the wire; ``None`` on a clean EOF."""
    line = await _read_line(reader)
    if line is None:
        return None
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    try:
        split = urlsplit(target)
    except ValueError as error:  # e.g. an unclosed IPv6 bracket
        raise HTTPError(400, f"malformed request target: {error}")
    query = dict(parse_qsl(split.query))
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        header = await _read_line(reader)
        if header is None:
            raise HTTPError(400, "connection closed mid-headers")
        if not header:
            break
        name, colon, value = header.partition(":")
        # Whitespace around a field name (``Content-Length : 2``, or a
        # folded continuation line) is rejected: a proxy that ignores
        # such a header would frame the body differently.
        if not colon or not name or name != name.strip():
            raise HTTPError(400, f"malformed header line: {header!r}")
        name, value = name.lower(), value.strip()
        if (name == "content-length" and name in headers
                and headers[name] != value):
            raise HTTPError(400, "conflicting Content-Length headers")
        headers[name] = value
    else:
        raise HTTPError(400, f"more than {MAX_HEADER_COUNT} headers")
    if "transfer-encoding" in headers:
        # Only Content-Length framing is spoken; guessing at a chunked
        # body would leave its bytes to be read as the next request.
        raise HTTPError(501, "Transfer-Encoding is not supported")
    body = b""
    length_text = headers.get("content-length", "0")
    # int() would also take a sign, underscores and non-ASCII digits.
    if not (length_text.isascii() and length_text.isdigit()):
        raise HTTPError(400, f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > max_body:
        raise HTTPError(413, f"body of {length} bytes exceeds {max_body}")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "connection closed mid-body")
    return Request(
        method=method,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


async def _read_line(reader: asyncio.StreamReader) -> Optional[str]:
    try:
        raw = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raw = error.partial
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "header line too long")
    if len(raw) > MAX_LINE_BYTES:
        raise HTTPError(400, "header line too long")
    return raw.decode("latin-1").rstrip("\r\n")


async def _handle_connection(
    router: Router,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    keep_alive: bool = False,
    max_requests: int = DEFAULT_KEEPALIVE_REQUESTS,
    counters=None,
) -> None:
    """Serve one connection: a single request, or (with ``keep_alive``)
    up to ``max_requests`` back-to-back requests.

    Every request re-runs the full parse-limit machinery.  The
    connection closes on: clean EOF, the request budget, a client
    ``Connection: close``, any framing error (the stream position is
    untrusted after a parse failure — reply, then close), or an
    unhandled handler exception.  Handler-raised :class:`HTTPError`
    responses leave the stream intact, so the connection stays open.
    """
    served = 0
    try:
        while True:
            close_after = True
            response: Optional[Response] = None
            try:
                request = await read_request(reader)
                if request is None:
                    return
                served += 1
                if counters is not None and keep_alive:
                    if served == 1:
                        counters.incr("keepalive_connections")
                    else:
                        counters.incr("keepalive_reuses")
                close_after = (
                    not keep_alive
                    or served >= max_requests
                    or request.wants_close()
                )
                try:
                    handler, params = router.resolve(
                        request.method, request.path
                    )
                    response = await handler(request, **params)
                except HTTPError as error:
                    # The request framed fine; only its content was
                    # wrong.  The stream is intact.
                    response = json_response(
                        {"error": error.message}, error.status
                    )
            except HTTPError as error:
                # Framing failure: the reply still goes out, but the
                # connection cannot be reused.
                response = json_response({"error": error.message}, error.status)
                close_after = True
            except asyncio.CancelledError:
                raise
            except Exception:
                logger.exception("unhandled error serving a request")
                response = json_response({"error": "internal server error"}, 500)
                close_after = True
            writer.write(response.encode(close=close_after))
            await writer.drain()
            if close_after:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def serve(
    router: Router,
    host: str = "127.0.0.1",
    port: int = 0,
    keep_alive: bool = False,
    max_requests: int = DEFAULT_KEEPALIVE_REQUESTS,
    counters=None,
) -> asyncio.base_events.Server:
    """Start listening; returns the server (caller owns its lifetime).

    ``keep_alive=False`` (the default) keeps the original one-request-
    per-connection behaviour.  ``counters`` may be a
    :class:`repro.obs.metrics.Counters` declaring
    :data:`KEEPALIVE_COUNTERS`, which this server counts into.
    """

    async def on_connect(reader, writer):
        await _handle_connection(
            router, reader, writer,
            keep_alive=keep_alive,
            max_requests=max_requests,
            counters=counters,
        )

    return await asyncio.start_server(on_connect, host=host, port=port)
