"""HTTP/1.1 framing over one receive buffer: parse a request, encode a response.

Just enough of the protocol for :mod:`repro.serve.server` -- request line,
headers, ``Content-Length`` bodies, keep-alive -- and every size limit that
protects the read side from a malicious peer:

* one request or header line may be 64 KiB at most, the header block
  ``max_header_bytes`` and 256 headers (431), the body ``max_body_bytes``
  (413); chunked transfer encoding and ``Content-Length`` headers that
  disagree are refused (400).

Nothing here reads a socket, arms a clock, knows what is served or counts
anything: a :class:`RequestParser` takes requests out of the bytes a
connection has received and says which clock guards the wait when they are
not a whole request yet.  A refused request is a :class:`ProtocolError`
carrying the status to answer with (and which clock ran out, if one did);
the server counts it and closes the connection.
"""

from __future__ import annotations

import re
from typing import Dict, NamedTuple, Optional, Tuple, Union

#: The longest request line or header line accepted.
_MAX_LINE = 64 * 1024

#: The end of a request head: its first blank line (lines end in CRLF or LF).
_HEAD_END = re.compile(rb"\n\r?\n")

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
    """A malformed, abusive or stalled request, answered with a 4xx and a close.

    Raised by the request parser before any handler runs (or built by the
    connection when a read clock runs out); the connection sends the JSON
    error and drops the connection (a peer that cannot frame a request
    cannot be trusted to frame the next one either).  *timeout* names the
    read clock that ran out (``"header"`` / ``"body"``) when that is why.
    """

    def __init__(self, status: int, message: str, timeout: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.timeout = timeout


class Request(NamedTuple):
    """One framed request (*client_request_id*: its ``X-Request-ID``, if any)."""

    method: str
    path: str
    keep_alive: bool
    query_string: str
    client_request_id: Optional[str]
    body: bytes


class RequestParser:
    """Takes requests, one at a time, out of one connection's receive buffer.

    The connection appends what it receives to :attr:`buffer` and calls
    :meth:`next`.  However many segments a request arrives in, each byte is
    searched for the end of the head once and the head is parsed once; while
    the body is short a call is one length check.  So a client dribbling a
    large head or body costs the loop time in proportion to what it sends.
    """

    def __init__(self, max_header_bytes: int, max_body_bytes: int):
        self.buffer = bytearray()  # received, not yet consumed by a request
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._scanned = 0  # where the search for the end of the head resumes
        #: A parsed head waiting for its body: the fields, where the body starts and ends.
        self._head: Optional[Tuple[tuple, int, int]] = None

    def next(self) -> Union[Request, str, None]:
        """Take the request at the front of the buffer out of it, under the limits.

        Returns the :class:`Request` (its bytes deleted from the buffer); or,
        when the buffer holds only part of one, the name of the read clock
        that guards the wait for the rest -- ``"header"`` until the head is
        complete, ``"body"`` after; or ``None`` for a blank request line, on
        which the connection hangs up.  Raises :class:`ProtocolError` for a
        malformed or oversized head (the caller responds 4xx and closes).
        """
        buffer, head = self.buffer, self._head
        if head is None:
            match = _HEAD_END.search(buffer, self._scanned)
            if match is None:
                # The most a valid head holds, line ends included.
                if len(buffer) > _MAX_LINE + self.max_header_bytes + 3:
                    raise ProtocolError(431, "request head exceeds the size limits")
                self._scanned = max(0, len(buffer) - 2)  # a match may straddle the next read
                return "header"
            end = match.end()
            fields, length = _parse_head(
                buffer[:end].decode("latin-1"), self.max_header_bytes, self.max_body_bytes
            )
            if fields is None:
                return None
            head = self._head = fields, end, end + length
        fields, end, need = head
        if len(buffer) < need:
            return "body"
        body = bytes(buffer[end:need])
        del buffer[:need]
        self._head, self._scanned = None, 0
        return Request(*fields, body)


def _parse_head(head: str, max_header_bytes: int, max_body_bytes: int) -> Tuple[Optional[tuple], int]:
    """The :class:`Request` fields but the body, and the body's length, of
    the request *head*; ``(None, 0)`` for a blank request line."""
    lines = head.split("\n")
    del lines[-2:]  # the blank line and what follows its LF
    request_line = lines[0]
    if not request_line.strip():
        return None, 0
    if len(head) > _MAX_LINE and max(map(len, lines)) > _MAX_LINE:
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
    if not (raw_length.isascii() and raw_length.isdigit()):  # also rejects signs, spaces, '1_0' and '²'
        raise ProtocolError(400, f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > max_body_bytes:
        raise ProtocolError(
            413, f"request body of {length} bytes exceeds the limit ({max_body_bytes} bytes)"
        )
    path, _, query_string = target.partition("?")
    keep_alive = version != "HTTP/1.0" and headers.get("connection", "").lower() != "close"
    return (method.upper(), path, keep_alive, query_string, headers.get("x-request-id") or None), length


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
