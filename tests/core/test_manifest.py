"""The one manifest: format, validation, sniffing, atomic save, legacy readers.

Restates ``tests/shard/test_manifest.py`` and the manifest cases of
``tests/live/`` against :mod:`repro.core.manifest`, the module that replaced
``repro.shard.manifest`` and ``repro.live.manifest``.  The two legacy
payloads below are what those modules wrote (field for field; the committed
bundles under ``tests/shard/data`` and ``tests/storage/data`` are the real
files).
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.core.manifest import (
    LIVE_SUFFIX,
    MANIFEST_FORMAT,
    MANIFEST_SUFFIX,
    MANIFEST_VERSION,
    Manifest,
    ManifestError,
    SegmentEntry,
    is_manifest,
    segment_file_names,
    wal_file_path,
)

LEGACY_FORMATS = ("repro-live-index", "repro-sharded-index")


def frozen_manifest() -> Manifest:
    return Manifest(
        mss=3,
        coding="root-split",
        next_tid=10,
        next_segment_id=2,
        segments=[
            SegmentEntry(0, "c.si.shard00", "c.si.shard00.data", 6, 100, 500, 0.2, 0, 9),
            SegmentEntry(1, "c.si.shard01", "c.si.shard01.data", 4, 80, 400, 0.3, 1, 8),
        ],
        partitioner="hash",
        build_seconds=0.5,
    )


def live_manifest() -> Manifest:
    return Manifest(
        mss=2,
        coding="filter",
        epoch=4,
        next_tid=12,
        next_segment_id=6,
        segments=[SegmentEntry(5, "c.seg005", "c.seg005.data", 10, 90, 450, 0.1, 0, 11)],
    )


def legacy_live_payload() -> dict:
    entry = {
        "segment_id": 0, "index_path": "c.seg000", "data_path": "c.seg000.data", "tree_count": 30,
        "key_count": 955, "posting_count": 3870, "build_seconds": 0.0093, "min_tid": 0, "max_tid": 29,
    }
    return {
        "format": "repro-live-index", "version": 1, "mss": 3, "coding": "root-split", "epoch": 2,
        "next_tid": 30, "next_segment_id": 1, "segments": [entry],
    }


def legacy_sharded_payload() -> dict:
    shards = [
        {"shard_id": shard_id, "index_path": f"c.si.shard0{shard_id}",
         "data_path": f"c.si.shard0{shard_id}.data", "tree_count": 30, "key_count": 700,
         "posting_count": 2500, "build_seconds": 0.012}
        for shard_id in (0, 1)
    ]
    return {
        "format": "repro-sharded-index", "version": 1, "mss": 3, "coding": "root-split",
        "partitioner": "hash", "shard_count": 2, "tree_count": 60, "build_wall_seconds": 0.0226,
        "epoch": 0, "shards": shards,
    }


#: name -> (payload, the key its entries are listed under)
PAYLOADS = {
    "current-frozen": (lambda: json.loads(frozen_manifest().to_json()), "segments"),
    "current-live": (lambda: json.loads(live_manifest().to_json()), "segments"),
    "legacy-live": (legacy_live_payload, "segments"),
    "legacy-sharded": (legacy_sharded_payload, "shards"),
}


def _write(tmp_path, payload, name: str = "c.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestRoundTrip:
    @pytest.mark.parametrize("make", (frozen_manifest, live_manifest))
    def test_save_and_load(self, tmp_path, make) -> None:
        path = str(tmp_path / ("c.si" + MANIFEST_SUFFIX))
        make().save_atomic(path)
        assert Manifest.load(path) == make()
        written = json.loads(open(path, encoding="utf-8").read())
        assert (written["format"], written["version"]) == (MANIFEST_FORMAT, MANIFEST_VERSION)

    def test_paths_resolve_against_manifest_directory(self, tmp_path) -> None:
        nested = tmp_path / "deep" / "dir"
        nested.mkdir(parents=True)
        path = str(nested / "c.si.manifest.json")
        manifest = frozen_manifest()
        manifest.save_atomic(path)
        assert manifest.resolve(path, manifest.segments[0].index_path) == str(nested / "c.si.shard00")

    def test_both_legacy_loaders_would_refuse_what_is_written(self) -> None:
        """The parent commit's loaders check ``format`` against these two ids
        ("not a ... manifest") and sniff for them in the first 512 bytes."""
        for text in (frozen_manifest().to_json(), live_manifest().to_json()):
            assert json.loads(text)["format"] not in LEGACY_FORMATS
            assert not any(name in text[:512] for name in LEGACY_FORMATS)


class TestAtomicSave:
    def test_no_temp_file_is_left(self, tmp_path) -> None:
        path = str(tmp_path / "c.live.json")
        live_manifest().save_atomic(path)
        assert os.listdir(tmp_path) == ["c.live.json"]

    def test_a_failed_swap_leaves_the_old_manifest_untouched(self, tmp_path, monkeypatch) -> None:
        path = str(tmp_path / "c.live.json")
        live_manifest().save_atomic(path)
        before = open(path, "rb").read()

        def refuse(*_args) -> None:
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        newer = live_manifest()
        newer.epoch += 1
        with pytest.raises(OSError, match="disk full"):
            newer.save_atomic(path)
        assert open(path, "rb").read() == before
        assert Manifest.load(path) == live_manifest()


class TestLegacyFormats:
    def test_a_legacy_live_manifest_reads_as_a_live_one(self, tmp_path) -> None:
        manifest = Manifest.load(_write(tmp_path, legacy_live_payload()))
        assert manifest.partitioner is None and manifest.build_seconds == 0.0
        assert (manifest.epoch, manifest.next_tid, manifest.next_segment_id) == (2, 30, 1)
        assert manifest.segments == [
            SegmentEntry(0, "c.seg000", "c.seg000.data", 30, 955, 3870, 0.0093, 0, 29)
        ]

    def test_a_legacy_sharded_manifest_reads_as_a_frozen_one(self, tmp_path) -> None:
        manifest = Manifest.load(_write(tmp_path, legacy_sharded_payload()))
        assert manifest.partitioner == "hash" and manifest.build_seconds == 0.0226
        assert (manifest.epoch, manifest.next_segment_id) == (0, 2)
        assert [entry.segment_id for entry in manifest.segments] == [0, 1]
        assert manifest.segments[1] == SegmentEntry(
            1, "c.si.shard01", "c.si.shard01.data", 30, 700, 2500, 0.012, None, None
        )

    def test_epoch_may_be_absent_from_a_legacy_sharded_manifest(self, tmp_path) -> None:
        payload = legacy_sharded_payload()
        del payload["epoch"]  # manifests older than the field
        assert Manifest.load(_write(tmp_path, payload)).epoch == 0

    def test_loading_never_rewrites(self, tmp_path) -> None:
        for payload in (legacy_live_payload(), legacy_sharded_payload()):
            path = _write(tmp_path, payload)
            before = open(path, "rb").read()
            Manifest.load(path)
            assert open(path, "rb").read() == before and os.listdir(tmp_path) == ["c.json"]


class TestValidation:
    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(ManifestError, match="cannot read"):
            Manifest.load(str(tmp_path / "nope.manifest.json"))

    @pytest.mark.parametrize("content", ('{"format": "something-else"}', "[1, 2]", '"repro-index-manifest"'))
    def test_other_json_is_not_a_manifest(self, tmp_path, content) -> None:
        path = tmp_path / "other.json"
        path.write_text(content)
        with pytest.raises(ManifestError, match="is not an index manifest"):
            Manifest.load(str(path))

    def test_not_json_at_all(self, tmp_path) -> None:
        path = tmp_path / "tree.bpt"
        path.write_bytes(b"\x00\xff" * 64)
        with pytest.raises(ManifestError, match="cannot read"):
            Manifest.load(str(path))

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_wrong_version(self, tmp_path, name) -> None:
        payload = PAYLOADS[name][0]()
        payload["version"] = 99
        with pytest.raises(ManifestError, match=r"unsupported .* version 99 .*reads version 1"):
            Manifest.load(_write(tmp_path, payload))

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_every_field_is_required_and_named(self, tmp_path, name) -> None:
        make, entries_key = PAYLOADS[name]
        optional = {"format", "version", "tree_count"} | ({"epoch"} if name == "legacy-sharded" else set())
        for field in set(make()) - optional:
            payload = make()
            del payload[field]
            with pytest.raises(ManifestError, match=rf"c\.json.*'{field}' of the manifest is missing"):
                Manifest.load(_write(tmp_path, payload))
        for field in make()[entries_key][0]:
            payload = make()
            del payload[entries_key][-1][field]
            position = len(payload[entries_key]) - 1
            with pytest.raises(
                ManifestError, match=rf"c\.json.*'{field}' of entry {position} of '{entries_key}' is missing"
            ):
                Manifest.load(_write(tmp_path, payload))

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_an_unknown_entry_field_is_named(self, tmp_path, name) -> None:
        make, entries_key = PAYLOADS[name]
        payload = make()
        payload[entries_key][0]["colour"] = "blue"
        with pytest.raises(ManifestError, match=rf"entry 0 of '{entries_key}' has an unknown field 'colour'"):
            Manifest.load(_write(tmp_path, payload))

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_wrong_types_are_named(self, tmp_path, name) -> None:
        make, entries_key = PAYLOADS[name]
        damaged = []
        for field, value in ((entries_key, "oops"), ("mss", "3"), ("mss", True), ("coding", 7)):
            payload = make()
            payload[field] = value
            damaged.append((payload, rf"'{field}' of the manifest is {value!r}"))
        payload = make()
        payload[entries_key][0] = "oops"
        damaged.append((payload, rf"entry 0 of '{entries_key}' must be an object"))
        payload = make()
        payload[entries_key][0]["key_count"] = None
        damaged.append((payload, rf"'key_count' of entry 0 of '{entries_key}' is None"))
        for payload, message in damaged:
            with pytest.raises(ManifestError, match=message):
                Manifest.load(_write(tmp_path, payload))

    def test_a_shard_count_that_disagrees_with_the_entries(self, tmp_path) -> None:
        payload = legacy_sharded_payload()
        payload["shards"] = payload["shards"][:1]
        with pytest.raises(ManifestError, match=r"declares 2 shards but lists \[0\]"):
            Manifest.load(_write(tmp_path, payload))
        payload = json.loads(frozen_manifest().to_json())
        payload["segments"].reverse()  # shard i must be segment i
        with pytest.raises(ManifestError, match=r"declares 2 shards but lists \[1, 0\]"):
            Manifest.load(_write(tmp_path, payload))

    def test_unknown_top_level_fields_are_ignored(self, tmp_path) -> None:
        payload = json.loads(live_manifest().to_json())
        payload["comment"] = "hand-edited"
        assert Manifest.load(_write(tmp_path, payload)) == live_manifest()


class TestSniffing:
    @pytest.mark.parametrize("name", PAYLOADS)
    def test_detects_by_content_not_name(self, tmp_path, name) -> None:
        payload = copy.deepcopy(PAYLOADS[name][0]())
        oddly_named = tmp_path / "corpus.si"
        oddly_named.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        assert is_manifest(str(oddly_named))

    def test_rejects_other_files(self, tmp_path) -> None:
        impostor = tmp_path / "x.manifest.json"
        impostor.write_text(json.dumps({"format": "not-an-index"}))
        assert not is_manifest(str(impostor))
        binary = tmp_path / "tree.bpt"
        binary.write_bytes(b"\x00" * 64)
        assert not is_manifest(str(binary))
        assert not is_manifest(str(tmp_path / "missing"))
        assert not is_manifest(str(tmp_path))  # a directory


class TestNaming:
    def test_a_frozen_bundles_shard_files(self) -> None:
        assert segment_file_names("/some/dir/c.si.manifest.json", 3, shard_epoch=0) == (
            "c.si.shard03", "c.si.shard03.data"
        )
        assert segment_file_names("c.si", 0, shard_epoch=0)[0] == "c.si.shard00"
        assert segment_file_names("c.si.manifest.json", 1, shard_epoch=2) == (
            "c.si.e2.shard01", "c.si.e2.shard01.data"
        )

    def test_a_live_bundles_segment_and_wal_files(self, tmp_path) -> None:
        path = str(tmp_path / ("corpus" + LIVE_SUFFIX))
        assert segment_file_names(path, 12) == ("corpus.seg012", "corpus.seg012.data")
        assert segment_file_names("renamed.json", 0)[0] == "renamed.json.seg000"
        assert wal_file_path(path) == str(tmp_path / "corpus.wal")
