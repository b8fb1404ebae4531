"""Unit tests for the hand-rolled HTTP/1.1 layer (no server needed —
``read_request`` is driven with a fed ``StreamReader``)."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http import (
    MAX_BODY_BYTES,
    HttpError,
    Request,
    Response,
    error_response,
    json_response,
    parse_query,
    read_request,
)


def parse(wire: bytes):
    """Run ``read_request`` over literal wire bytes."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


class TestReadRequest:
    def test_minimal_get(self):
        request = parse(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/health"
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive

    def test_query_and_percent_decoding(self):
        request = parse(b"GET /v1/x?groups=a%2Cb&f=1+2 HTTP/1.1\r\n\r\n")
        assert request.query == {"groups": "a,b", "f": "1 2"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_header(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_post_with_body(self):
        request = parse(
            b"POST /v1/x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"

    def test_post_without_length_is_411(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /v1/x HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 411

    def test_chunked_encoding_is_501(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST /v1/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 501

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                f"POST /v1/x HTTP/1.1\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
        assert excinfo.value.status == 413

    @pytest.mark.parametrize(
        "wire",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_malformed_requests_are_400(self, wire):
        with pytest.raises(HttpError) as excinfo:
            parse(wire)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("target", [b"//[", b"http://[::1/x", b"//[::1"])
    def test_malformed_target_is_400(self, target):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET " + target + b" HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "length", [b"+4", b"1_0", b"4 4", b"0x4", b"\xb2", b"\xd9\xa4", b""]
    )
    def test_content_length_must_be_digits(self, length):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: " + length
                  + b"\r\n\r\nabcd")
        assert excinfo.value.status == 400

    def test_content_length_leading_zeros(self):
        request = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: "
            + b"0" * 5000 + b"4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"

    def test_content_length_past_int_digit_limit_is_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000
                  + b"\r\n\r\n")
        assert excinfo.value.status == 413

    def test_lowercase_post_without_length_is_411(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"post /v1/x HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 411

    def test_header_name_lowercased(self):
        request = parse(b"GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n\r\n")
        assert request.headers["if-none-match"] == '"abc"'


class TestRequestJson:
    def test_malformed_json_body_is_400(self):
        request = Request(
            method="POST", target="/", path="/", query={}, headers={},
            body=b"{nope",
        )
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestResponseRender:
    def test_body_and_length(self):
        wire = json_response(200, {"a": 1}).render(keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert body == b'{"a":1}'
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head

    def test_304_has_no_body_or_content_type(self):
        wire = Response(304, headers={"ETag": '"k"'}).render(keep_alive=True)
        assert wire.endswith(b"\r\n\r\n")
        assert b"Content-Length: 0" in wire
        assert b"Content-Type" not in wire
        assert b'ETag: "k"' in wire

    def test_error_envelope(self):
        response = error_response(404, "nope")
        assert response.body == (
            b'{"error":{"message":"nope","status":404}}'
        )

    def test_connection_close(self):
        wire = json_response(200, {}).render(keep_alive=False)
        assert b"Connection: close" in wire


def test_parse_query_duplicates_last_wins():
    assert parse_query("a=1&a=2&b=") == {"a": "2", "b": ""}


_FRAGMENTS = [
    b"GET ", b"POST ", b"post ", b"/v1/x", b"//[", b"http://[::1/", b"[",
    b"?a=%zz&b", b" HTTP/1.1", b" HTTP/2", b"\r\n", b"\n", b"\r\n\r\n",
    b"Content-Length: ", b"Transfer-Encoding: chunked", b"Connection: close",
    b"4", b"-1", b"+1", b"1_0", b"9" * 20, b":", b" ", b"\x00", b"\xff",
]
_pieces = st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=6))


@st.composite
def request_like(draw):
    """A request line, headers and body built from hostile pieces."""
    line = b"".join(draw(st.lists(_pieces, max_size=4)))
    target = b"".join(draw(st.lists(_pieces, min_size=1, max_size=4)))
    version = draw(st.sampled_from([b" HTTP/1.1", b" HTTP/1.0", b""]))
    headers = [
        b"".join(draw(st.lists(_pieces, max_size=4)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    body = draw(st.binary(max_size=16))
    return b"\r\n".join([line + b" " + target + version, *headers, b"", body])


@settings(max_examples=400, deadline=None)
@given(
    wire=st.one_of(
        st.binary(max_size=300),
        st.lists(_pieces, max_size=24).map(b"".join),
        request_like(),
    )
)
def test_read_request_only_returns_or_raises_http_error(wire):
    """Over any byte stream: a ``Request``, ``None`` or an ``HttpError``."""
    try:
        result = parse(wire)
    except HttpError as exc:
        assert exc.status in (400, 411, 413, 501)
    else:
        assert result is None or isinstance(result, Request)
