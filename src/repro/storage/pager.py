"""Fixed-size page management over a single file.

The experiments in the paper report index sizes with a 4096-byte system page
size; the pager mirrors that: all B+Tree nodes and overflow chains live in
4096-byte pages of one index file.

The paper kept no buffer pool of its own -- "we relied on the page buffering
of the operating system", Section 6.1 -- because in C a page handed back by
the OS is searchable as it is.  In Python the fetch is the cheap part and
*re-interpreting* the page is the cost: parsing the ~145 length-prefixed
records of a leaf takes several times longer than the ``read`` that produced
them.  So the pager keeps a bounded set of *resident images*, one per page
and at most ``cache_pages`` (256) of them, evicting the least recently used.
An image is the raw page unless the page's owner has replaced it through
:meth:`Pager.keep`: the B+Tree keeps its decoded nodes there, overflow and
metadata pages stay raw bytes.  Each page is resident once, in whichever form
its reader needs, never in both.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro import obs

#: Default page size in bytes (matches the paper's reported system page size).
PAGE_SIZE = 4096


class PageError(RuntimeError):
    """Raised on invalid page accesses (out of range, wrong size, ...)."""


class Pager:
    """Allocate, read and write fixed-size pages in a single file.

    Page 0 is reserved for the caller's metadata (the B+Tree stores its root
    pointer there).  Pages are identified by their ordinal number.  A new
    file is created for writing; an existing one is opened read-only, so a
    reader never changes a byte of it (nor its modification time).
    """

    def __init__(self, path: str | os.PathLike, page_size: int = PAGE_SIZE, cache_pages: int = 256):
        self.path = os.fspath(path)
        self.page_size = page_size
        self._cache_limit = cache_pages
        # page id -> resident image, least recently used first.
        self._cache: "OrderedDict[int, object]" = OrderedDict()
        #: File reads performed (resident pages excluded) -- the cheap
        #: always-on I/O proxy the descent spans report deltas of.
        self.read_count = 0
        #: ``True`` for a file this pager created, the only kind it writes.
        self.writable = not os.path.exists(self.path)
        self._file = open(self.path, "w+b" if self.writable else "rb")
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            self._file.close()
            raise PageError(
                f"file size {size} is not a multiple of the page size {page_size}"
            )
        self._page_count = size // page_size
        if self.writable:
            # Reserve the metadata page.
            self.allocate()

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        """Number of pages currently allocated (including the meta page)."""
        return self._page_count

    def size_bytes(self) -> int:
        """Total size of the page file in bytes."""
        return self._page_count * self.page_size

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Allocate a new zero-filled page and return its page id."""
        page_id = self._page_count
        self._file.seek(page_id * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        self._page_count += 1
        return page_id

    def read(self, page_id: int) -> object:
        """The resident image of page *page_id*, read from the file if absent.

        That is the raw page (``bytes``) unless :meth:`keep` replaced it.
        """
        if not 0 <= page_id < self._page_count:
            raise PageError(f"page {page_id} out of range (have {self._page_count})")
        cache = self._cache
        cached = cache.get(page_id)
        if cached is not None:
            cache.move_to_end(page_id)
            return cached
        self.read_count += 1
        # Page-read spans only make sense nested under a descent (or some
        # other traced operation); a bare read stays span-free even when
        # tracing is on, so builds never flood the trace ring.
        if obs.enabled() and obs.current_span() is not None:
            with obs.trace("page_read", page=page_id):
                data = self.read_raw(page_id)
        else:
            data = self.read_raw(page_id)
        self.keep(page_id, data)
        return data

    def read_raw(self, page_id: int) -> bytes:
        """Page *page_id* as the file holds it; resident images are neither used nor changed."""
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise PageError(f"short read on page {page_id}")
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Write *data* (at most one page) to page *page_id*."""
        if not 0 <= page_id < self._page_count:
            raise PageError(f"page {page_id} out of range (have {self._page_count})")
        if len(data) > self.page_size:
            raise PageError(
                f"payload of {len(data)} bytes exceeds the page size {self.page_size}"
            )
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        self._file.seek(page_id * self.page_size)
        self._file.write(data)
        self.keep(page_id, data)

    def keep(self, page_id: int, image: object) -> None:
        """Make *image* the resident form of page *page_id*.

        The caller vouches that *image* is what the page's bytes decode to;
        it is handed back by :meth:`read` until evicted or replaced.
        """
        cache = self._cache
        cache[page_id] = image
        cache.move_to_end(page_id)
        while len(cache) > self._cache_limit:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush buffered writes to the operating system."""
        self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        self._cache.clear()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
