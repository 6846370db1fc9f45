"""``read_request`` on generated bytes: a typed outcome or nothing.

Whatever arrives on the socket, the parser must return a
:class:`~repro.service.http.Request` (or ``None`` on a clean EOF) or
raise :class:`~repro.service.http.HTTPError` with a framing status —
400, 413 or 501.  Any other exception would reach the server's
catch-all and be answered as a logged 500.

The default run draws hypothesis' default hundred inputs per property;
``--hypothesis-profile=deep`` (registered in tests/conftest.py, run
nightly) draws two thousand.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http import HTTPError, Request, read_request

FRAMING_STATUSES = {400, 413, 501}

#: readers with the server's default line limit and a tiny one, so the
#: limit-overrun path is drawn too
LIMITS = st.sampled_from([64, 2 ** 16])

#: body bounds around the drawn bodies' sizes, so 413 is drawn too
MAX_BODIES = st.integers(min_value=0, max_value=64)


#: latin-1 characters, weighted toward the ones HTTP framing splits on
_ANY = st.characters(codec="latin-1")
_FIELD = st.one_of(
    st.text(alphabet=":/?#[]@ \t\r\n", max_size=3),
    st.text(alphabet=_ANY, max_size=12),
)
#: one request-line word: no character ``str.split`` splits on
_WORD = st.text(alphabet=_ANY.filter(lambda c: not c.isspace()), max_size=12)


@st.composite
def request_shaped(draw) -> bytes:
    """A method, target, version, header lines and body, each drawn
    from well-formed and broken values alike."""
    # Three request lines in four split into three words, so most draws
    # reach the target, header and body parsing behind the line.
    whole_line = draw(st.sampled_from([True, True, True, False]))
    method = draw(
        st.sampled_from(["GET", "POST", "DELETE", "get"]) if whole_line
        else _FIELD
    )
    target = draw(
        st.sampled_from(["/", "/sweeps/a1?x=1", "//[::1", "http://[", "*"])
        | st.builds(lambda text: "/" + text, _WORD if whole_line else _FIELD)
    )
    version = draw(
        st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) if whole_line
        else st.just("HTTP/2") | _FIELD
    )
    lines = [" ".join([method, target, version])]
    body = draw(st.binary(max_size=40))
    headers = draw(st.lists(
        st.one_of(
            st.builds(lambda n: f"Content-Length: {n}",
                      st.sampled_from([len(body), len(body) + 3, 0, -1])),
            st.builds(lambda value: f"Content-Length: {value}", _FIELD),
            st.just("Transfer-Encoding: chunked"),
            st.just("Connection: close"),
            st.builds(lambda name, value: f"{name}:{value}", _FIELD, _FIELD),
            _FIELD,
        ),
        max_size=6,
    ))
    lines.extend(headers)
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    head = terminator.join(lines) + terminator * 2
    return head.encode("latin-1") + body


def parse(data: bytes, limit: int, max_body: int):
    """Feed ``data`` (then EOF) to a fresh reader; return the outcome
    of one ``read_request``."""

    async def run():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)

    return asyncio.run(run())


def assert_typed_outcome(data: bytes, limit: int, max_body: int) -> None:
    try:
        outcome = parse(data, limit, max_body)
    except HTTPError as error:
        assert error.status in FRAMING_STATUSES, error.status
        return
    # Only a connection closed before any byte is a clean EOF.
    if data:
        assert isinstance(outcome, Request)
    else:
        assert outcome is None


@settings(deadline=None)
@given(st.binary(max_size=200), LIMITS, MAX_BODIES)
def test_arbitrary_bytes_give_a_typed_outcome(data, limit, max_body):
    assert_typed_outcome(data, limit, max_body)


@settings(deadline=None)
@given(request_shaped(), LIMITS, MAX_BODIES)
def test_request_shaped_bytes_give_a_typed_outcome(data, limit, max_body):
    assert_typed_outcome(data, limit, max_body)
