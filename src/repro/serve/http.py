"""A thin HTTP/1.1 front over asyncio streams — stdlib only, no deps.

Just enough protocol for a JSON control plane plus SSE streaming:
request-line + headers + Content-Length bodies in; JSON (or
``text/event-stream``) out, one request per connection
(``Connection: close``).  Anything fancier (TLS, keep-alive, chunked
uploads) belongs in front of the service, not inside it.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_HEADER_BYTES = 64 * 1024


class HttpError(Exception):
    """Raise anywhere in a handler to answer with a status + JSON body."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}

    def __reduce__(self):
        return type(self), (self.status, self.message, self.headers)


class Request:
    """One parsed request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Dict[str, object]:
        """The body as a JSON object; 400 on anything else."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise HttpError(400, "JSON body must be an object")
        return data


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line; 400 when it is longer than the stream's buffer limit
    (``readline`` reports that as a ``ValueError``)."""
    try:
        return await reader.readline()
    except ValueError:
        raise HttpError(400, "request or header line too long") from None


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request; None on a cleanly closed connection."""
    try:
        request_line = await _read_line(reader)
    except ConnectionError:
        return None
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader)
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, value = line.decode("latin-1").split(":", 1)
        except ValueError:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length")
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > max_body_bytes:
            raise HttpError(413, f"body exceeds {max_body_bytes} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    return Request(method, unquote(split.path), query, headers, body)


def _head(
    status: int, headers: Dict[str, str], extra: Optional[Dict[str, str]]
) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
    merged = dict(headers)
    if extra:
        merged.update(extra)
    lines.extend(f"{name}: {value}" for name, value in merged.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, object],
    headers: Optional[Dict[str, str]] = None,
) -> None:
    body = (json.dumps(payload) + "\n").encode("utf-8")
    writer.write(
        _head(
            status,
            {
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
                "Connection": "close",
            },
            headers,
        )
    )
    writer.write(body)
    await writer.drain()


def error_payload(exc: HttpError) -> Tuple[int, Dict[str, object], Dict]:
    payload: Dict[str, object] = {"error": exc.message, "status": exc.status}
    headers = dict(exc.headers)
    if exc.status == 429 and "Retry-After" not in headers:
        headers["Retry-After"] = "1"
    return exc.status, payload, headers


def retry_after_header(seconds: float) -> Dict[str, str]:
    """Retry-After must be an integer per RFC 9110; always round up."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


async def start_sse(writer: asyncio.StreamWriter) -> None:
    writer.write(
        _head(
            200,
            {
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-cache",
                "Connection": "close",
            },
            None,
        )
    )
    await writer.drain()


async def send_sse(
    writer: asyncio.StreamWriter,
    data: Dict[str, object],
    event_id: Optional[int] = None,
    event: Optional[str] = None,
) -> None:
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    lines.append(f"data: {json.dumps(data)}")
    writer.write(("\n".join(lines) + "\n\n").encode("utf-8"))
    await writer.drain()
