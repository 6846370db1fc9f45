"""The HTTP framing layer: routing, parsing, limits, error mapping."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.http import (
    HTTPError,
    Router,
    json_response,
    serve,
)


def build_router() -> Router:
    router = Router()

    async def root(request):
        return json_response({"path": "/", "query": request.query})

    async def echo(request, name):
        return json_response({"name": name, "body": request.json()})

    async def boom(request):
        raise RuntimeError("kaboom")

    router.add("GET", "/", root)
    router.add("POST", "/things/{name}", echo)
    router.add("GET", "/boom", boom)
    return router


async def _raw_exchange(port: int, data: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    writer.write_eof()  # half-close: the server still writes its reply
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def exchange(data: bytes):
    """One request against a fresh server; returns (status, json body)."""

    async def run():
        server = await serve(build_router(), port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            raw = await _raw_exchange(port, data)
        finally:
            server.close()
            await server.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body) if body else None

    return asyncio.run(run())


def test_routing_and_query():
    status, body = exchange(b"GET /?alpha=1&beta=two HTTP/1.1\r\n\r\n")
    assert status == 200
    assert body == {"path": "/", "query": {"alpha": "1", "beta": "two"}}


def test_path_params_and_json_body():
    payload = json.dumps({"k": [1, 2]}).encode()
    request = (
        b"POST /things/widget HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(payload)}\r\n\r\n".encode()
        + payload
    )
    status, body = exchange(request)
    assert status == 200
    assert body == {"name": "widget", "body": {"k": [1, 2]}}


def test_unknown_path_is_404():
    status, body = exchange(b"GET /nope HTTP/1.1\r\n\r\n")
    assert status == 404
    assert "no route" in body["error"]


def test_wrong_method_is_405():
    status, body = exchange(b"DELETE / HTTP/1.1\r\n\r\n")
    assert status == 405
    assert "not allowed" in body["error"]


def test_bad_json_body_is_400():
    request = (
        b"POST /things/w HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot-json"
    )
    status, body = exchange(request)
    assert status == 400
    assert "not valid JSON" in body["error"]


def test_malformed_request_line_is_400():
    status, body = exchange(b"NONSENSE\r\n\r\n")
    assert status == 400
    assert "malformed request line" in body["error"]


@pytest.mark.parametrize(
    "length_headers",
    [
        b"Content-Length: banana\r\n",
        # readexactly(-5) would raise ValueError -> a spurious 500.
        b"Content-Length: -5\r\n",
        # int() accepts a sign and digit-group underscores; HTTP does not.
        b"Content-Length: +2\r\n",
        b"Content-Length: 0_2\r\n",
        # Letting either copy win lets a proxy and this server disagree
        # on where the body ends.
        b"Content-Length: 2\r\nContent-Length: 5\r\n",
    ],
    ids=["banana", "-5", "+2", "0_2", "conflicting-duplicates"],
)
def test_bad_content_length_is_400(length_headers):
    status, body = exchange(
        b"POST /things/w HTTP/1.1\r\n" + length_headers + b"\r\n{}"
    )
    assert status == 400
    assert "Content-Length" in body["error"]


@pytest.mark.parametrize(
    "header",
    [b"no-colon-here", b"Content-Length : 2", b" X-Folded: yes", b": empty"],
    ids=["no-colon", "space-before-colon", "folded", "empty-name"],
)
def test_malformed_header_line_is_400(header):
    status, body = exchange(
        b"POST /things/w HTTP/1.1\r\n" + header + b"\r\n\r\n{}"
    )
    assert status == 400
    assert "malformed header line" in body["error"]


def test_transfer_encoding_is_501():
    status, body = exchange(
        b"POST /things/w HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n"
    )
    assert status == 501
    assert "Transfer-Encoding" in body["error"]


def test_oversized_body_is_413():
    status, body = exchange(
        b"POST /things/w HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
    )
    assert status == 413
    assert "exceeds" in body["error"]


def test_handler_exception_is_500():
    status, body = exchange(b"GET /boom HTTP/1.1\r\n\r\n")
    assert status == 500
    assert body["error"] == "internal server error"


def test_truncated_body_is_400():
    status, body = exchange(
        b"POST /things/w HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
    )
    assert status == 400
    assert "mid-body" in body["error"]


def test_router_resolve_raises_typed_errors():
    router = build_router()
    with pytest.raises(HTTPError) as missing:
        router.resolve("GET", "/absent")
    assert missing.value.status == 404
    with pytest.raises(HTTPError) as wrong_method:
        router.resolve("PATCH", "/")
    assert wrong_method.value.status == 405
    handler, params = router.resolve("POST", "/things/x%20y")
    assert params == {"name": "x y"}
    assert handler is not None


# ----------------------------------------------------------------------
# Keep-alive framing.


async def _read_framed_response(reader):
    """Parse one Content-Length-framed response off an open stream."""
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    status = int(head.split()[1])
    headers = {}
    for line in head.split("\r\n")[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, json.loads(body) if body else None


def run_keepalive(scenario, router=None, **serve_kwargs):
    """Run ``scenario(port)`` against a keep-alive server."""

    async def main():
        server = await serve(router or build_router(), port=0,
                             keep_alive=True, **serve_kwargs)
        port = server.sockets[0].getsockname()[1]
        try:
            return await scenario(port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_keepalive_back_to_back_requests():
    from repro.obs.metrics import Counters

    counters = Counters()

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        results = []
        for _ in range(3):
            writer.write(b"GET /?n=1 HTTP/1.1\r\n\r\n")
            await writer.drain()
            results.append(await _read_framed_response(reader))
        writer.close()
        await writer.wait_closed()
        return results

    results = run_keepalive(scenario, counters=counters)
    for status, headers, body in results:
        assert status == 200
        assert headers["connection"] == "keep-alive"
        assert body["query"] == {"n": "1"}
    assert counters.as_dict() == {
        "keepalive_connections": 1, "keepalive_reuses": 2,
    }


def test_keepalive_request_budget_closes_connection():
    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        responses = []
        for _ in range(2):
            writer.write(b"GET / HTTP/1.1\r\n\r\n")
            await writer.drain()
            responses.append(await _read_framed_response(reader))
        trailing = await reader.read()  # budget reached: server closed
        writer.close()
        await writer.wait_closed()
        return responses, trailing

    responses, trailing = run_keepalive(scenario, max_requests=2)
    assert responses[0][1]["connection"] == "keep-alive"
    assert responses[1][1]["connection"] == "close"
    assert trailing == b""


def test_keepalive_honours_client_connection_close():
    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        await writer.drain()
        response = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return response, trailing

    (status, headers, _body), trailing = run_keepalive(scenario)
    assert status == 200
    assert headers["connection"] == "close"
    assert trailing == b""


def test_keepalive_handler_error_keeps_connection_open():
    """A 404 is a content problem, not a framing problem: the same
    connection must serve the next request."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
        await writer.drain()
        first = await _read_framed_response(reader)
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        await writer.drain()
        second = await _read_framed_response(reader)
        writer.close()
        await writer.wait_closed()
        return first, second

    first, second = run_keepalive(scenario)
    assert first[0] == 404
    assert first[1]["connection"] == "keep-alive"
    assert second[0] == 200


def test_keepalive_framing_error_closes_connection():
    """After a parse failure the stream position is untrusted: reply,
    then close, even mid keep-alive."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        await writer.drain()
        good = await _read_framed_response(reader)
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        bad = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return good, bad, trailing

    good, bad, trailing = run_keepalive(scenario)
    assert good[0] == 200
    assert bad[0] == 400
    assert bad[1]["connection"] == "close"
    assert trailing == b""


@pytest.mark.parametrize(
    "target", [b"//[::1", b"http://["], ids=["authority", "absolute"]
)
def test_unparsable_target_is_framing_400(target, caplog):
    """A target ``urlsplit`` rejects (an unclosed IPv6 bracket) is a
    framing error: a 400 that closes the connection, not a logged 500."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET " + target + b" HTTP/1.1\r\n\r\n")
        await writer.drain()
        reply = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return reply, trailing

    (status, headers, body), trailing = run_keepalive(scenario)
    assert status == 400
    assert "malformed request target" in body["error"]
    assert headers["connection"] == "close"
    assert trailing == b""
    assert "unhandled error" not in caplog.text


def test_keepalive_chunked_body_is_not_smuggled():
    """A chunked POST whose body holds a pipelined GET: one 501, then
    close.  The Content-Length covers only the chunk-size line, so a
    parser that ignored Transfer-Encoding would end the POST there and
    route the GET as the next request on the connection."""
    routed = []
    router = build_router()

    async def secret(request):
        routed.append(request.path)
        return json_response({"secret": True})

    router.add("GET", "/secret", secret)
    smuggled = b"GET /secret HTTP/1.1\r\n\r\n"
    size_line = f"{len(smuggled):x}\r\n".encode()
    chunked = (
        b"POST /things/w HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
        + f"Content-Length: {len(size_line)}\r\n\r\n".encode()
        + size_line + smuggled + b"\r\n0\r\n\r\n"
    )

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(chunked)
        await writer.drain()
        reply = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return reply, trailing

    (status, headers, _body), trailing = run_keepalive(scenario, router)
    assert status == 501
    assert headers["connection"] == "close"
    assert trailing == b""
    assert routed == []


def test_keepalive_mid_body_disconnect():
    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"POST /things/w HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        await writer.drain()
        writer.write_eof()
        response = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return response, trailing

    (status, headers, body), trailing = run_keepalive(scenario)
    assert status == 400
    assert "mid-body" in body["error"]
    assert headers["connection"] == "close"
    assert trailing == b""


def test_keepalive_enforces_line_limit_per_request():
    """Parse limits apply to every request on the connection, not just
    the first."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET / HTTP/1.1\r\n\r\n")
        await writer.drain()
        good = await _read_framed_response(reader)
        writer.write(b"GET /" + b"x" * 9000 + b" HTTP/1.1\r\n\r\n")
        await writer.drain()
        bad = await _read_framed_response(reader)
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return good, bad, trailing

    good, bad, trailing = run_keepalive(scenario)
    assert good[0] == 200
    assert bad[0] == 400
    assert "too long" in bad[2]["error"]
    assert trailing == b""


def test_default_connection_close_framing_unchanged():
    """Without keep_alive the server still closes after one request —
    and says so in the response headers."""

    async def main():
        server = await serve(build_router(), port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET / HTTP/1.1\r\n\r\n")
            await writer.drain()
            response = await _read_framed_response(reader)
            trailing = await reader.read()
            writer.close()
            await writer.wait_closed()
            return response, trailing
        finally:
            server.close()
            await server.wait_closed()

    (status, headers, _body), trailing = asyncio.run(main())
    assert status == 200
    assert headers["connection"] == "close"
    assert trailing == b""
