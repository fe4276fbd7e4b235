"""Posting records as the bytes a build stores for them, for tests that
write a list by hand: the write path itself never builds a record."""

from __future__ import annotations

from typing import List, Sequence

from repro.coding import CodingScheme, RootPosting
from repro.coding.postings import SubtreePosting


def encode_records(coding: CodingScheme, postings: Sequence[object]) -> bytes:
    """*postings* (records, or columns read as records) as *coding* stores
    them: their rows end to end, through ``encode_body``."""
    body: List[int] = []
    for posting in postings:
        body.append(posting.tid)
        if isinstance(posting, SubtreePosting):
            body.append(posting.size)
            for node in posting.nodes:
                body += (node.pre, node.post, node.level, node.order)
        elif isinstance(posting, RootPosting):
            body += (posting.pre, posting.post, posting.level)
    return coding.encode_body(body)
