"""Page-based storage engine.

The paper implements its subtree index as "a native disk-based B+Tree index"
with 4096-byte pages and no private buffer cache (Section 6.1).  This package
reproduces that substrate in pure Python, with one departure: up to 256
pages stay resident in decoded form, because here parsing a page costs more
than fetching it (see :mod:`repro.storage.pager`):

* :mod:`repro.storage.codec` -- varint and record (de)serialisation helpers.
* :mod:`repro.storage.pager` -- a fixed-size page file with allocation and
  the bounded set of resident page images.
* :mod:`repro.storage.bptree` -- a disk-resident B+Tree mapping byte-string
  keys to byte-string values, with overflow chains for large posting lists.
"""

from repro.storage.bptree import BPlusTree
from repro.storage.codec import (
    decode_varint,
    decode_varint_run,
    encode_varint,
)
from repro.storage.pager import PAGE_SIZE, Pager

__all__ = [
    "BPlusTree",
    "Pager",
    "PAGE_SIZE",
    "encode_varint",
    "decode_varint",
    "decode_varint_run",
]
