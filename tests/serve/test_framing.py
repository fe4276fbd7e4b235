"""The request parser on its own: no socket, no loop, no clock."""

from __future__ import annotations

import pytest

from repro.serve.framing import ProtocolError, Request, RequestParser


def _parse(head: bytes):
    parser = RequestParser(max_header_bytes=1024, max_body_bytes=2048)
    parser.buffer += head
    return parser.next()


def test_an_ascii_content_length_frames_the_body() -> None:
    request = _parse(b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy")
    assert isinstance(request, Request) and request.body == b"xy"


@pytest.mark.parametrize("raw", [b"\xb2", b"\xb3", b"\xb9", b"1\xb2", b"-1", b"+2", b"1_0", b""])
def test_a_content_length_of_anything_but_ascii_digits_is_a_400(raw) -> None:
    # The head is read as Latin-1, where '\xb2' is '²': str.isdigit says yes
    # and int() says no, so only ASCII digits may pass.
    with pytest.raises(ProtocolError) as raised:
        _parse(b"POST /query HTTP/1.1\r\nContent-Length: " + raw + b"\r\n\r\nxx")
    assert raised.value.status == 400
    assert "Content-Length" in str(raised.value)
