"""Hand-rolled HTTP/1.1 parsing and rendering over asyncio streams.

The service speaks exactly the slice of HTTP/1.1 its API needs — no
framework, no third-party dependency, in keeping with the repo-wide
zero-heavy-dep constraint:

* request line + headers + ``Content-Length`` bodies (no chunked
  transfer encoding — a body without a length is a 411, a chunked one
  a 501);
* persistent connections by default, ``Connection: close`` honored;
* responses always carry ``Content-Length`` so pipelined clients can
  delimit them.

Anything malformed maps to :class:`HttpError` with the right status
code; the connection loop turns that into an error response instead of
tearing the socket down.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import unquote, urlsplit

__all__ = ["HttpError", "Request", "Response", "read_request"]

#: Hard request limits: a line longer than this or a body bigger than
#: this is rejected rather than buffered (the API's payloads are small).
MAX_LINE_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADERS = 64

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request defect that maps to one HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should persist after the response."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> object:
        """Decode the body as JSON, or raise a 400 :class:`HttpError`."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from None


@dataclass
class Response:
    """One response to render; body is ready-to-send bytes."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def render(self, *, keep_alive: bool) -> bytes:
        """Serialize status line, headers and body as wire bytes."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        if self.status != 304:
            lines.append(f"Content-Type: {self.content_type}")
        lines.append(f"Content-Length: {0 if self.status == 304 else len(self.body)}")
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        if self.status == 304:
            return head
        return head + self.body


def json_response(
    status: int, payload: object, *, headers: dict[str, str] | None = None
) -> Response:
    """Build a JSON response with deterministic (sorted-key) encoding."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return Response(status, body, headers=dict(headers or {}))


def error_response(status: int, message: str) -> Response:
    """Build the service's uniform JSON error envelope."""
    return json_response(
        status, {"error": {"status": status, "message": message}}
    )


def parse_query(raw: str) -> dict[str, str]:
    """Parse ``a=1&b=2`` into a dict (last duplicate wins, keys unquoted)."""
    query: dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        name, _, value = part.partition("=")
        query[unquote(name)] = unquote(value.replace("+", " "))
    return query


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        raise HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long") from None
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(400, "request line too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on anything malformed; the caller answers
    with the matching status and closes the connection.
    """
    line = await _read_line(reader)
    if not line.strip():
        return None
    try:
        method, target, version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")
    method = method.upper()

    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if not raw.strip():
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(400, "too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {raw!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked transfer encoding is not supported")
    if "content-length" in headers:
        # RFC 9110 ``1*DIGIT``: int() alone would take "+10" and "1_0".
        digits = headers["content-length"]
        if not (digits.isascii() and digits.isdigit()):
            raise HttpError(400, "malformed Content-Length")
        # A number longer than the cap is over it; int() would refuse
        # one of more than 4300 digits.
        digits = digits.lstrip("0") or "0"
        too_long = len(digits) > len(str(MAX_BODY_BYTES))
        length = MAX_BODY_BYTES + 1 if too_long else int(digits)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body") from None
    elif method in ("POST", "PUT"):
        raise HttpError(411, "Content-Length required")

    try:
        parts = urlsplit(target)
    except ValueError:  # e.g. an unclosed IPv6 bracket: "//["
        raise HttpError(400, "malformed request target") from None
    path = unquote(parts.path) or "/"
    return Request(
        method=method,
        target=target,
        path=path,
        query=parse_query(parts.query),
        headers=headers,
        body=body,
    )
