"""Unit tests for the page manager."""

from __future__ import annotations

import pytest

from repro.storage.pager import PAGE_SIZE, PageError, Pager


class TestPager:
    def test_new_file_reserves_meta_page(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin")
        assert pager.page_count == 1
        assert pager.size_bytes() == PAGE_SIZE

    def test_allocate_and_round_trip(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin")
        page = pager.allocate()
        pager.write(page, b"hello")
        data = pager.read(page)
        assert data.startswith(b"hello")
        assert len(data) == PAGE_SIZE

    def test_write_pads_short_payloads(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin")
        page = pager.allocate()
        pager.write(page, b"x")
        assert pager.read(page)[1:] == b"\x00" * (PAGE_SIZE - 1)

    def test_oversized_write_rejected(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin")
        page = pager.allocate()
        with pytest.raises(PageError):
            pager.write(page, b"x" * (PAGE_SIZE + 1))

    def test_out_of_range_access_rejected(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin")
        with pytest.raises(PageError):
            pager.read(5)
        with pytest.raises(PageError):
            pager.write(5, b"data")

    def test_persistence_across_reopen(self, tmp_path) -> None:
        path = tmp_path / "pages.bin"
        pager = Pager(path)
        page = pager.allocate()
        pager.write(page, b"persist me")
        pager.close()
        reopened = Pager(path)
        assert reopened.page_count == 2
        assert reopened.read(page).startswith(b"persist me")

    def test_custom_page_size(self, tmp_path) -> None:
        pager = Pager(tmp_path / "pages.bin", page_size=512)
        page = pager.allocate()
        pager.write(page, b"y" * 512)
        assert len(pager.read(page)) == 512

    def test_corrupt_size_detected(self, tmp_path) -> None:
        path = tmp_path / "pages.bin"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(PageError):
            Pager(path)

    def test_context_manager_closes(self, tmp_path) -> None:
        with Pager(tmp_path / "pages.bin") as pager:
            pager.allocate()
        # File can be reopened after the context exits.
        assert Pager(tmp_path / "pages.bin").page_count == 2


class TestResidentImages:
    def _pager(self, tmp_path, budget: int) -> Pager:
        pager = Pager(tmp_path / "pages.bin", page_size=64, cache_pages=budget)
        for index in range(1, 6):
            pager.write(pager.allocate(), bytes([index]))
        return pager

    def test_eviction_is_by_recency_not_by_arrival(self, tmp_path) -> None:
        pager = self._pager(tmp_path, budget=3)  # pages 3, 4, 5 resident
        before = pager.read_count
        pager.read(3)                            # oldest arrival, now the most recent
        pager.read(1)                            # evicts 4, not 3
        pager.read(3)
        assert pager.read_count - before == 1
        pager.read(4)
        assert pager.read_count - before == 2
        assert len(pager._cache) == 3

    def test_a_kept_image_replaces_the_raw_page(self, tmp_path) -> None:
        pager = self._pager(tmp_path, budget=3)
        image = ["decoded", 5]
        pager.keep(5, image)
        assert pager.read(5) is image
        assert len(pager._cache) == 3            # replaced, not added
        pager.write(5, b"new")                   # a write supersedes the image
        assert pager.read(5)[:3] == b"new"
        for page in (1, 2, 3):
            pager.read(page)                     # evict 5: the file has the last write
        assert pager.read(5)[:3] == b"new"
