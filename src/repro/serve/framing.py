"""HTTP/1.1 framing over ``asyncio`` streams: read one request, write one response.

Just enough of the protocol for :mod:`repro.serve.server` -- request line,
headers, ``Content-Length`` bodies, keep-alive -- and every limit and clock
that protects the read and write side from a slow, dead or malicious peer:

* the whole request head (request line + headers) must arrive within
  ``header_timeout`` seconds, the body within its own ``header_timeout``
  budget (408); each clock is one timer, armed only when a read actually
  has to wait -- a request that arrived whole costs none;
* one request or header line may be 64 KiB at most, the header block
  ``max_header_bytes`` and 256 headers (431), the body ``max_body_bytes``
  (413); chunked transfer encoding and ``Content-Length`` headers that
  disagree are refused (400);
* a response write is bounded by ``write_timeout``: a client that stops
  reading has its connection aborted once ``writer.drain()`` stalls.

Nothing here knows what is served: the module imports nothing from the
query service, counts nothing and routes nothing.  A refused request is a
:class:`ProtocolError` carrying the status to answer with (and which clock
ran out, if one did); the server counts it and closes the connection.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, Iterator, NamedTuple, Optional

#: The longest request line or header line accepted.
_MAX_LINE = 64 * 1024

#: Bytes taken from the stream per read.
_READ_CHUNK = 64 * 1024

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """A malformed or abusive request head, answered with a 4xx and a close.

    Raised by the request reader before any handler runs; the connection
    loop sends the JSON error and drops the connection (a peer that cannot
    frame a request cannot be trusted to frame the next one either).
    *timeout* names the read clock that ran out (``"header"`` / ``"body"``)
    when that is why.
    """

    def __init__(self, status: int, message: str, timeout: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.timeout = timeout


class IdleTimeout(Exception):
    """An idle keep-alive connection hit the header timeout: close silently."""


class Expired(Exception):
    """A :func:`deadline` ran out (never raised by the work it guards)."""


class Request(NamedTuple):
    """One framed request (*client_request_id*: its ``X-Request-ID``, if any)."""

    method: str
    path: str
    keep_alive: bool
    body: bytes
    query_string: str
    client_request_id: Optional[str]


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Bound the awaits of a ``with`` block: :class:`Expired` after *seconds*.

    One timer handle and no Task (``asyncio.timeout`` for 3.10): the timer
    cancels the current task -- which, when it fires, can only be suspended
    inside the block -- and the cancellation leaves the block as
    :class:`Expired`.  Anyone else's cancellation passes through.  Enter it
    only around an await that is about to block; arming the timer is the cost.
    """
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    handle = asyncio.get_running_loop().call_later(seconds, expire)
    try:
        yield
    except asyncio.CancelledError:
        if not expired:
            raise
        if hasattr(task, "uncancel"):  # 3.11+: retract our own cancel request
            task.uncancel()
        raise Expired() from None
    finally:
        handle.cancel()


def _head_end(buffer: bytearray, start: int) -> int:
    """The index just past the blank line that ends the request head in
    *buffer* (searched from *start*), or -1.  Lines end in CRLF or bare LF."""
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start)
    if crlf < 0 or 0 <= lf < crlf:
        return lf + 2 if lf >= 0 else -1
    return crlf + 3


async def read_request(
    reader: asyncio.StreamReader,
    buffer: bytearray,
    first: bool,
    header_timeout: float,
    max_header_bytes: int,
    max_body_bytes: int,
) -> Optional[Request]:
    """Parse one request head + body under the read timeouts and limits.

    *buffer* holds what the connection has received and not yet
    consumed; the request is parsed out of it in one step and the
    stream is read only when it runs short (a pipelined request is
    already there).  Each such wait is guarded by one timer: the whole
    head shares a *header_timeout* budget, the body gets its own.

    Returns ``None`` on a cleanly closed connection.  Raises
    :class:`ProtocolError` for malformed/oversized heads (the caller
    responds 4xx and closes) and :class:`IdleTimeout` when an idle
    keep-alive connection (not its *first* request) times out between
    requests.
    """
    end = _head_end(buffer, 0)
    if end < 0:
        try:
            with deadline(header_timeout):
                while end < 0:
                    # The most a valid head holds, line ends included.
                    if len(buffer) > _MAX_LINE + max_header_bytes + 3:
                        raise ProtocolError(431, "request head exceeds the size limits")
                    scanned = max(0, len(buffer) - 2)
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return None  # EOF before a complete head: client went away
                    buffer += chunk
                    end = _head_end(buffer, scanned)
        except Expired:
            if not buffer and not first:
                raise IdleTimeout() from None
            # Connect-and-say-nothing, or a slow-loris head dribbling in
            # slower than the budget.
            doing = "reading request headers" if buffer else "waiting for a request"
            raise ProtocolError(
                408, f"timed out {doing} (header timeout {header_timeout:g}s)", timeout="header"
            ) from None
    lines = buffer[:end].decode("latin-1").split("\n")
    del lines[-2:]  # the blank line and what follows its LF
    request_line = lines[0]
    if not request_line.strip():
        return None
    if max(map(len, lines)) > _MAX_LINE:
        raise ProtocolError(431, "request or header line exceeds the line length limit")
    parts = request_line.split()
    if len(parts) != 3:
        raise ProtocolError(400, "malformed request line")
    method, target, version = parts
    # Header lines with their line ends; the blank line is not counted.
    header_bytes = sum(map(len, lines)) + len(lines) - len(request_line) - 1
    if header_bytes > max_header_bytes or len(lines) > 257:
        raise ProtocolError(431, f"request headers exceed the limit ({max_header_bytes} bytes)")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # Two framings of one request: whichever a proxy in front
            # picked, we might pick the other (request smuggling).
            raise ProtocolError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ProtocolError(400, "Transfer-Encoding is not supported; send a Content-Length body")
    raw_length = headers.get("content-length", "0")
    if not raw_length.isdigit():  # also rejects signs, spaces and '1_0'
        raise ProtocolError(400, f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > max_body_bytes:
        raise ProtocolError(
            413, f"request body of {length} bytes exceeds the limit ({max_body_bytes} bytes)"
        )
    need = end + length
    if len(buffer) < need:
        try:
            with deadline(header_timeout):
                while len(buffer) < need:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return None  # EOF mid-body
                    buffer += chunk
        except Expired:
            raise ProtocolError(
                408,
                f"timed out reading the request body (timeout {header_timeout:g}s)",
                timeout="body",
            ) from None
    body = bytes(buffer[end:need])
    del buffer[:need]
    path, _, query_string = target.partition("?")
    keep_alive = version != "HTTP/1.0" and headers.get("connection", "").lower() != "close"
    return Request(
        method.upper(), path, keep_alive, body, query_string, headers.get("x-request-id") or None
    )


def _header_safe(value: str) -> str:
    """A client-supplied id made safe to echo in a response header."""
    if not (value.isascii() and value.isprintable()):  # minted ids never are
        value = "".join(ch for ch in value if 32 <= ord(ch) < 127)
    return value[:128]


def encode_response(
    status: int,
    content_type: str,
    payload: bytes,
    keep_alive: bool,
    request_id: Optional[str] = None,
) -> bytes:
    """The bytes of one response: status line, headers, *payload*."""
    reason = _STATUS_REASONS.get(status, "Unknown")
    request_id_header = f"X-Request-ID: {_header_safe(request_id)}\r\n" if request_id else ""
    # Every load-shedding 503 invites the client back: shedding is about
    # bounding queues, not turning traffic away for good.
    retry_header = "Retry-After: 1\r\n" if status == 503 else ""
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{request_id_header}"
        f"{retry_header}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


async def write_response(
    writer: asyncio.StreamWriter, response: bytes, write_timeout: float
) -> bool:
    """Write one encoded response under the write timeout.

    Returns False (after aborting the connection) when the client
    stopped reading for longer than *write_timeout* -- a never-reading
    sink must not pin the connection task forever.
    """
    transport = writer.transport
    writer.write(response)
    if not transport.get_write_buffer_size():
        await writer.drain()  # all of it reached the socket: cannot block
        return True
    try:
        with deadline(write_timeout):
            await writer.drain()
    except Expired:
        transport.abort()
        return False
    return True
