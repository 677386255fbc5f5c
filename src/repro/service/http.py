"""Minimal asyncio HTTP/1.1 plumbing for :mod:`repro.service`.

The service speaks a deliberately small slice of HTTP — enough for
JSON request/response exchanges over ``asyncio`` streams without
pulling in a web framework:

* :func:`read_request` parses one request (request line, headers,
  ``Content-Length``-delimited body) from a stream reader;
* :func:`write_json` renders a JSON response with correct framing and
  ``Connection: close`` semantics (one exchange per connection keeps
  the protocol state machine trivial);
* :func:`fetch_json` is the matching client coroutine, used by the
  service tests, the throughput bench and any asyncio caller that
  wants to talk to a running service without extra dependencies.

Anything malformed raises :class:`HTTPError`, which the connection
handler in :mod:`repro.service.app` converts into a 4xx response; the
parser never grows unbounded state (request line, header block and
body are all size-capped).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HTTPError",
    "Request",
    "read_request",
    "write_json",
    "fetch_json",
]

#: Upper bounds keeping a misbehaving client from ballooning memory.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A request the server refuses; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON; :class:`HTTPError` 400 otherwise."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}")

    def flag(self, name: str) -> bool:
        """A boolean query parameter (``?wait=1`` / ``?trace=true``)."""
        return self.query.get(name, "").lower() in ("1", "true", "yes", "on")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request from ``reader``; ``None`` on a clean EOF.

    Raises :class:`HTTPError` for malformed or oversized input —
    callers answer with the carried status and close the connection.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HTTPError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].upper().startswith("HTTP/1."):
        raise HTTPError(400, f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HTTPError(400, "truncated header block")
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HTTPError(400, "header block too large")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HTTPError(400, "invalid Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HTTPError(413, f"body of {length} bytes exceeds the limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HTTPError(400, "truncated request body")

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method=method, path=split.path, query=query, headers=headers, body=body
    )


async def write_json(
    writer: asyncio.StreamWriter, status: int, payload: Any
) -> None:
    """Send one JSON response, flush, and half-close the connection.

    The half-close (FIN) is what tells an EOF-reading client the
    response is complete.  Closing the socket is not enough: a process
    pool worker forked while this connection was open holds a copy of
    its descriptor, so the server's ``close()`` alone sends no FIN.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()


async def fetch_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any = None,
    *,
    timeout: float = 60.0,
) -> Tuple[int, Any]:
    """One JSON exchange with a running service.

    Returns ``(status, decoded payload)``.  ``body`` (when given) is
    JSON-encoded into the request.  The whole exchange — connect,
    write, read the full response — is bounded by ``timeout``.
    """

    async def exchange() -> Tuple[int, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = b""
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
            head = (
                f"{method.upper()} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + payload)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        header_blob, _, rest = raw.partition(b"\r\n\r\n")
        status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
        status = int(status_line.split()[1])
        return status, json.loads(rest.decode("utf-8")) if rest else None

    return await asyncio.wait_for(exchange(), timeout)
