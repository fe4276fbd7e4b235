"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cli import main
from repro.core.index import SubtreeIndex
from repro.corpus.store import data_file_path
from repro.live import LiveIndex


@pytest.fixture()
def corpus_file(tmp_path) -> str:
    path = str(tmp_path / "corpus.penn")
    assert main(["generate", "--sentences", "40", "--seed", "3", "--out", path]) == 0
    return path


@pytest.fixture()
def index_file(tmp_path, corpus_file) -> str:
    path = str(tmp_path / "corpus.si")
    assert main(["build", corpus_file, "--mss", "3", "--coding", "root-split", "--out", path]) == 0
    return path


class TestGenerate:
    def test_generate_writes_corpus(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "gen.penn")
        assert main(["generate", "--sentences", "40", "--seed", "3", "--out", path]) == 0
        assert "40 parse trees" in capsys.readouterr().out
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 40
        assert lines[0].startswith("(ROOT")

    def test_generate_is_deterministic(self, tmp_path) -> None:
        first = str(tmp_path / "a.penn")
        second = str(tmp_path / "b.penn")
        main(["generate", "--sentences", "10", "--seed", "5", "--out", first])
        main(["generate", "--sentences", "10", "--seed", "5", "--out", second])
        assert open(first).read() == open(second).read()

    def test_generate_refuses_a_negative_sentence_count(self, tmp_path, capsys) -> None:
        path = tmp_path / "g.penn"
        assert main(["generate", "--sentences", "-5", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --sentences must be at least 1, got -5\n" and captured.out == ""
        assert not path.exists()


class TestBuildAndStats:
    def test_build_reports_counts(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "counts.si")
        assert main(["build", corpus_file, "--mss", "2", "--coding", "root-split", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "root-split index" in captured.out
        assert "keys" in captured.out

    def test_stats(self, index_file, capsys) -> None:
        assert main(["stats", index_file]) == 0
        captured = capsys.readouterr()
        assert "coding          : root-split" in captured.out
        assert "mss             : 3" in captured.out

    def test_stats_top_keys(self, index_file, capsys) -> None:
        assert main(["stats", index_file, "--top", "5"]) == 0
        captured = capsys.readouterr()
        assert "top 5 keys" in captured.out

    def test_stats_refuses_a_negative_top(self, index_file, capsys) -> None:
        assert main(["stats", index_file, "--top", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --top must be at least 0, got -3\n" and captured.out == ""

    @pytest.mark.parametrize("coding", ["filter", "subtree-interval"])
    def test_build_other_codings(self, tmp_path, corpus_file, coding) -> None:
        out = str(tmp_path / f"{coding}.si")
        assert main(["build", corpus_file, "--coding", coding, "--out", out]) == 0


class TestBuildValidation:
    def test_mss_below_one_is_friendly(self, corpus_file, tmp_path, capsys) -> None:
        out = str(tmp_path / "bad.si")
        assert main(["build", corpus_file, "--mss", "0", "--out", out]) == 2
        assert "--mss must be at least 1" in capsys.readouterr().err

    def test_missing_corpus_is_friendly(self, tmp_path, capsys) -> None:
        out = str(tmp_path / "bad.si")
        assert main(["build", str(tmp_path / "nope.penn"), "--out", out]) == 2
        assert "corpus file not found" in capsys.readouterr().err

    def test_malformed_corpus_is_friendly(self, tmp_path, capsys) -> None:
        """As ``add`` does: one error line, exit 2, no file written."""
        bad = tmp_path / "bad.penn"
        bad.write_text("(S (NP (NN cats)))\n(NP ((BAD\n", encoding="utf-8")
        out = tmp_path / "bad.si"
        assert main(["build", str(bad), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read corpus") and captured.err.count("\n") == 1
        assert captured.out == "" and sorted(path.name for path in tmp_path.iterdir()) == ["bad.penn"]

    def test_bad_shard_and_worker_counts(self, corpus_file, tmp_path, capsys) -> None:
        out = str(tmp_path / "bad.si")
        assert main(["build", corpus_file, "--shards", "0", "--out", out]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["build", corpus_file, "--shards", "2", "--workers", "0", "--out", out]) == 2
        assert "--workers" in capsys.readouterr().err


class TestSharded:
    @pytest.fixture()
    def manifest_file(self, tmp_path, corpus_file) -> str:
        out = str(tmp_path / "sharded.si")
        assert main(
            ["build", corpus_file, "--mss", "3", "--shards", "3", "--workers", "1", "--out", out]
        ) == 0
        return out + ".manifest.json"

    def test_build_reports_shards(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "s.si")
        assert main(["build", corpus_file, "--shards", "2", "--workers", "1", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "2 shards" in captured
        assert "manifest:" in captured

    def test_query_against_manifest(self, manifest_file, index_file, capsys) -> None:
        assert main(["query", manifest_file, "NP(DT)(NN)", "--show-tids"]) == 0
        sharded_out = capsys.readouterr().out
        assert main(["query", index_file, "NP(DT)(NN)", "--show-tids"]) == 0
        single_out = capsys.readouterr().out
        # Identical matches, counts and tid lists through either path.
        assert sharded_out.splitlines()[0].split("(")[0] == single_out.splitlines()[0].split("(")[0]
        assert sharded_out.splitlines()[1] == single_out.splitlines()[1]

    def test_stats_shows_per_source_table(self, manifest_file, capsys) -> None:
        assert main(["stats", manifest_file]) == 0
        captured = capsys.readouterr().out
        assert "kind            : sharded (epoch 0, hash partitioner)" in captured
        assert "keys (src sum)  : " in captured
        assert "sources         : 3" in captured
        rows = re.findall(r"^  (\d)    (\d+) +[\d,]+ +[\d,]+ +[\d,]+ +(\d+-\d+) +\d\.\d\d$", captured, re.MULTILINE)
        assert [row[0] for row in rows] == ["0", "1", "2"] and sum(int(row[1]) for row in rows) == 40
        # The page census under the size: three files' pages added up.
        assert re.search(r"^  meta +3 pages +60 payload +12,228 slack$", captured, re.MULTILINE)
        assert re.search(r"^  leaf +[\d,]+ pages +[\d,]+ payload +[\d,]+ slack$", captured, re.MULTILINE)

    def test_stats_json(self, manifest_file, index_file, capsys) -> None:
        assert main(["stats", manifest_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["flavor"], payload["partitioner"], payload["epoch"]) == ("sharded", "hash", 0)
        assert payload["key_count_semantics"] == "per-source-sum"
        assert [s["segment_id"] for s in payload["sources"]] == [0, 1, 2]
        assert sum(s["tree_count"] for s in payload["sources"]) == payload["tree_count"]
        assert sum(s["key_count"] for s in payload["sources"]) == payload["key_count"]
        assert sum(s["size_bytes"] for s in payload["sources"]) == payload["size_bytes"]
        assert not {"sharded", "live", "shards", "segments", "shard_count"} & set(payload)
        assert payload["storage"]["meta"]["pages"] == 3
        assert 4096 * sum(row["pages"] for row in payload["storage"].values()) == payload["size_bytes"]
        # Plain indexes emit the same shape, minus the per-source breakdown.
        assert main(["stats", index_file, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (plain["flavor"], plain["key_count_semantics"]) == ("plain", "distinct")
        assert not {"sources", "partitioner", "epoch", "live"} & set(plain)
        assert {"meta", "leaf"} <= set(plain["storage"])
        assert all(set(row) == {"pages", "payload_bytes", "slack_bytes"} for row in plain["storage"].values())
        assert 4096 * sum(row["pages"] for row in plain["storage"].values()) == plain["size_bytes"]


    def test_stats_json_of_an_index_without_its_data_file(self, index_file, capsys) -> None:
        os.remove(data_file_path(index_file))
        assert main(["stats", index_file, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        with SubtreeIndex.open(index_file) as reader:
            assert plain["tree_count"] == reader.metadata.tree_count == 40
        assert (plain["flavor"], plain["key_count_semantics"]) == ("plain", "distinct")
        assert not {"sources", "partitioner", "epoch", "live"} & set(plain)
        assert not os.path.exists(data_file_path(index_file))  # opening it wrote nothing


class TestLive:
    @pytest.fixture()
    def live_manifest(self, tmp_path, corpus_file) -> str:
        out = str(tmp_path / "live.si")
        assert main(["build", corpus_file, "--mss", "3", "--live", "--out", out]) == 0
        return out + ".live.json"

    @pytest.fixture()
    def extra_file(self, tmp_path) -> str:
        path = str(tmp_path / "extra.penn")
        assert main(["generate", "--sentences", "6", "--seed", "9", "--out", path]) == 0
        return path

    def test_build_live_reports_manifest(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "b.si")
        assert main(["build", corpus_file, "--live", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "built live root-split index" in captured
        assert "manifest:" in captured

    def test_build_live_rejects_shards(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "b.si")
        assert main(["build", corpus_file, "--live", "--shards", "2", "--out", out]) == 2
        assert "--live and --shards" in capsys.readouterr().err

    def test_add_then_query_sees_new_trees(self, live_manifest, extra_file, capsys) -> None:
        assert main(["query", live_manifest, "NP"]) == 0
        before = int(capsys.readouterr().out.split(":")[1].split()[0])
        assert main(["add", live_manifest, extra_file]) == 0
        assert "added 6 trees" in capsys.readouterr().out
        assert main(["query", live_manifest, "NP"]) == 0
        after = int(capsys.readouterr().out.split(":")[1].split()[0])
        assert after > before

    def test_add_missing_corpus_is_friendly(self, live_manifest, tmp_path, capsys) -> None:
        assert main(["add", live_manifest, str(tmp_path / "nope.penn")]) == 2
        assert "corpus file not found" in capsys.readouterr().err

    def test_add_malformed_corpus_is_friendly(self, live_manifest, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.penn"
        bad.write_text("(NP ((BAD\n", encoding="utf-8")
        assert main(["add", live_manifest, str(bad)]) == 2
        assert "cannot read corpus" in capsys.readouterr().err

    def test_add_checks_every_line_before_adding_one(self, live_manifest, tmp_path, capsys) -> None:
        """A malformed line anywhere in the file: exit 2, nothing added."""
        bad = tmp_path / "late.penn"
        bad.write_text("(S (NP (NN cats)) (VP (VBP purr)))\n# note\n\n(NP (DT the)))\n", encoding="utf-8")
        assert main(["add", live_manifest, str(bad)]) == 2
        assert "unbalanced ')' (at position 13)" in capsys.readouterr().err
        live = LiveIndex.open(live_manifest)
        try:
            assert live.wal.op_count == 0 and live.delta.tree_count == 0
        finally:
            live.close()
        good = tmp_path / "good.penn"
        good.write_text("  ( (S (NP (NN cats)) (VP (VBP purr))))\n# note\n(X)\n", encoding="utf-8")
        assert main(["add", live_manifest, str(good)]) == 0
        assert "added 2 trees" in capsys.readouterr().out
        live = LiveIndex.open(live_manifest)
        try:
            assert [live.delta.trees.record(tid) for tid in live.delta.trees.tids()] == [
                b"(ROOT (S (NP (NN cats)) (VP (VBP purr))))", b"(X)",
            ]
        finally:
            live.close()

    def test_add_to_non_live_index_is_friendly(self, index_file, extra_file, capsys) -> None:
        assert main(["add", index_file, extra_file]) == 2
        assert "not a live index" in capsys.readouterr().err

    def test_delete_and_unknown_tid(self, live_manifest, capsys) -> None:
        assert main(["delete", live_manifest, "3", "5"]) == 0
        assert "deleted 2 of 2" in capsys.readouterr().out
        assert main(["delete", live_manifest, "3"]) == 2  # already deleted
        assert "no tree with tid 3" in capsys.readouterr().err

    def test_compact_and_stats(self, live_manifest, extra_file, capsys) -> None:
        assert main(["add", live_manifest, extra_file]) == 0
        assert main(["delete", live_manifest, "0"]) == 0
        capsys.readouterr()
        assert main(["compact", live_manifest]) == 0
        out = capsys.readouterr().out
        assert "compacted to epoch 1" in out
        assert "flushed 6 delta trees" in out
        assert main(["compact", live_manifest]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert main(["stats", live_manifest]) == 0
        out = capsys.readouterr().out
        assert "kind            : live (epoch 1)" in out
        assert "sources         : 2" in out  # the rewritten seed segment + the flushed delta
        assert re.search(r"^  1    39 .* 1-39 ", out, re.MULTILINE)
        assert re.search(r"^  2    6 .* 40-45 ", out, re.MULTILINE)
        assert "delta           : 0 trees" in out
        assert "tombstones      : 0" in out
        assert "wal             : 0 ops" in out

    def test_stats_json_live_payload(self, live_manifest, extra_file, capsys) -> None:
        assert main(["add", live_manifest, extra_file]) == 0
        capsys.readouterr()
        assert main(["stats", live_manifest, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["flavor"], payload["partitioner"]) == ("live", None)
        assert payload["key_count_semantics"] == "per-source-sum"
        assert payload["epoch"] == 0 == payload["live"]["epoch"]
        assert payload["live"]["delta_trees"] == 6 and payload["live"]["delta_keys"] > 0
        assert payload["live"]["wal_ops"] == 6 and payload["live"]["wal_bytes"] > 0
        assert payload["live"]["tombstones"] == 0
        assert payload["tree_count"] == 46
        assert [(s["segment_id"], s["min_tid"], s["max_tid"]) for s in payload["sources"]] == [(0, 0, 39)]
        assert 4096 * sum(row["pages"] for row in payload["storage"].values()) == payload["size_bytes"]


class TestExplain:
    def test_explain_prints_plan_without_joining(self, index_file, capsys) -> None:
        assert main(["query", index_file, "S(NP)(VP(VBZ))", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan: strategy=min-rc, mss=3, coding=root-split" in out
        assert "cover:" in out
        assert "postings" in out
        assert "join phase not executed" in out
        assert "matches" not in out  # no execution happened

    def test_explain_plans_the_join_and_prints_its_kernel(self, index_file, capsys) -> None:
        assert main(["query", index_file, "S(NP(DT)(NN))(VP(VBZ)(NP))", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "join: 3 step(s), left-deep from the smallest relation" in out
        assert "S \u2283 VP (child)" in out and "S \u2283 NP#1 (child)" in out
        assert "    def kernel(common, tids, columns):" in out
        assert "roots.add(" in out and "matches" not in out
        # One key is one list: there is nothing to plan.
        assert main(["query", index_file, "NP(DT)(NN)", "--explain"]) == 0
        assert "join:" not in capsys.readouterr().out

    def test_explain_binds_twins_no_key_holds_in_the_join(self, tmp_path, corpus_file, capsys) -> None:
        # At mss 2 no key holds NP(NN)(NN): each NN roots a relation of its
        # own, and the join keeps the two apart.
        path = str(tmp_path / "twins.si")
        assert main(["build", corpus_file, "--mss", "2", "--coding", "root-split", "--out", path]) == 0
        capsys.readouterr()
        assert main(["query", path, "S(NP(NN)(NN))(VP(VBZ)(NP))", "--explain"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines() if line.endswith(" postings")].count("NN") == 2
        assert out.count(" binds NN#") == 2
        assert out.count(".pre != ") == 1 and "NN#2.pre != NN#3.pre" in out

    def test_explain_rejects_batch_and_repeat(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP", "--explain", "--batch"]) == 2
        assert "--explain cannot be combined" in capsys.readouterr().err
        assert main(["query", index_file, "NP", "--explain", "--repeat", "3"]) == 2

    def test_explain_works_on_live_index(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "exp.si")
        assert main(["build", corpus_file, "--live", "--out", out]) == 0
        capsys.readouterr()
        assert main(["query", out + ".live.json", "NP(DT)(NN)", "--explain"]) == 0
        assert "fetch total:" in capsys.readouterr().out
        assert main(["query", out + ".live.json", "S(NP(DT)(NN))(VP(VBZ)(NP))", "--explain"]) == 0
        out = capsys.readouterr().out  # the plan of the one join that runs, over the merged lists
        assert "  join: " in out and "  kernel:" in out


class TestBench:
    def test_bench_list(self, capsys) -> None:
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure8_index_size" in out
        assert "table3_join_counts" in out
        assert "experiments registered" in out

    def test_bench_list_json(self, capsys) -> None:
        assert main(["bench", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [config["name"] for config in payload]
        assert "figure2_index_keys" in names
        assert all("metrics" in config for config in payload)

    def test_bench_list_rejects_names(self, capsys) -> None:
        assert main(["bench", "list", "figure8_index_size"]) == 2
        assert "takes no experiment names" in capsys.readouterr().err

    def test_bench_without_action_is_friendly(self, capsys) -> None:
        assert main(["bench"]) == 2
        assert "pass an action" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
    def test_bench_run_refuses_a_scale_that_is_not_positive(self, tmp_path, capsys, scale) -> None:
        out, work = tmp_path / "out", tmp_path / "work"
        assert main(["bench", "run", "table3_join_counts", "--scale", scale,
                     "--out", str(out), "--workdir", str(work)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: scale must be positive and finite, got {float(scale)}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_bench_run_unknown_experiment(self, tmp_path, capsys) -> None:
        assert main([
            "bench", "run", "no_such_experiment",
            "--out", str(tmp_path / "out"), "--workdir", str(tmp_path / "work"),
        ]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_run_emits_artefacts(self, tmp_path, capsys) -> None:
        out = tmp_path / "out"
        assert main([
            "bench", "run", "table3_join_counts",
            "--out", str(out), "--workdir", str(tmp_path / "work"),
        ]) == 0
        assert "table3_join_counts" in capsys.readouterr().out
        assert (out / "table3_join_counts.txt").exists()
        document = json.loads((out / "BENCH_table3_join_counts.json").read_text())
        from repro.bench.schema import validate_document

        assert validate_document(document) == []
        assert document["experiment"] == "table3_join_counts"

    def test_bench_run_json_output(self, tmp_path, capsys) -> None:
        assert main([
            "bench", "run", "table3_join_counts", "--json",
            "--out", str(tmp_path / "out"), "--workdir", str(tmp_path / "work"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table3_join_counts"

    def test_the_gate_is_gone(self, tmp_path, capsys) -> None:
        # Exact cells are held to benchmarks/results/ by benchmarks/conftest.py
        # and timing claims are decided by perfbench pairs: no third gate.
        for argv, message in (
            (["bench", "gate", str(tmp_path), str(tmp_path)], "invalid choice: 'gate'"),
            (["bench", "run", "table3_join_counts", "--tolerance", "1.5"], "unrecognized arguments"),
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert message in capsys.readouterr().err


class TestQuery:
    def test_query_returns_matches(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP(DT)", "VP(VBZ)"]) == 0
        captured = capsys.readouterr()
        assert "NP(DT):" in captured.out
        assert "matches" in captured.out

    def test_query_refuses_a_negative_limit(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP", "--show-tids", "--limit", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --limit must be at least 0, got -2\n" and captured.out == ""

    def test_query_refuses_a_negative_repeat(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP(DT)", "--repeat", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --repeat must be at least 1, got -3\n" and captured.out == ""

    def test_query_show_tids(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP", "--show-tids", "--limit", "3"]) == 0
        captured = capsys.readouterr()
        assert "tids:" in captured.out

    def test_bad_query_sets_exit_code(self, index_file, capsys) -> None:
        assert main(["query", index_file, "NP((("]) == 2
        captured = capsys.readouterr()
        assert "cannot parse query" in captured.err

    def test_filter_coding_query_uses_data_file(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "filter.si")
        main(["build", corpus_file, "--coding", "filter", "--out", out])
        assert main(["query", out, "S(NP)(VP)"]) == 0
        assert "matches" in capsys.readouterr().out


class TestDamagedManifest:
    """A manifest that is valid JSON but damaged is a named error and exit 2
    from every command that opens an index -- never a traceback."""

    @pytest.fixture(params=("sharded", "live"))
    def manifest_file(self, request, tmp_path, corpus_file) -> str:
        out = str(tmp_path / "m.si")
        if request.param == "live":
            assert main(["build", corpus_file, "--live", "--out", out]) == 0
            return out + ".live.json"
        assert main(["build", corpus_file, "--shards", "2", "--workers", "1", "--out", out]) == 0
        return out + ".manifest.json"

    @staticmethod
    def _damage(path: str, change) -> None:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        change(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)

    @pytest.mark.parametrize("change, named", [
        (lambda payload: payload.pop("coding"), "'coding' of the manifest is missing"),
        (lambda payload: payload["segments"][0].update(colour="blue"), "unknown field 'colour'"),
        (lambda payload: payload.update(segments="oops"), "'segments' of the manifest is 'oops'"),
        (lambda payload: payload.update(mss="3"), "'mss' of the manifest is '3'"),
    ])
    def test_every_command_names_the_field(self, manifest_file, corpus_file, capsys, change, named) -> None:
        self._damage(manifest_file, change)
        capsys.readouterr()
        for command in (
            ["stats", manifest_file],
            ["stats", manifest_file, "--json"],
            ["query", manifest_file, "NP(DT)(NN)"],
            ["serve", manifest_file, "--port", "0"],
            ["loadtest", manifest_file],
        ):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert f"error: cannot open index {manifest_file!r}" in captured.err and named in captured.err
            assert captured.out == ""
        for command in (["add", manifest_file, corpus_file], ["delete", manifest_file, "0"], ["compact", manifest_file]):
            assert main(command) == 2
            assert named in capsys.readouterr().err

    def test_mutating_a_sharded_index_is_refused_by_name(self, tmp_path, corpus_file, capsys) -> None:
        out = str(tmp_path / "frozen.si")
        assert main(["build", corpus_file, "--shards", "2", "--workers", "1", "--out", out]) == 0
        capsys.readouterr()
        for command in (["add", out + ".manifest.json", corpus_file], ["delete", out + ".manifest.json", "0"],
                        ["compact", out + ".manifest.json"]):
            assert main(command) == 2
            assert "is not a live index (build one with 'build --live')" in capsys.readouterr().err


class TestServeValidation:
    def test_missing_index_is_friendly(self, tmp_path, capsys) -> None:
        assert main(["serve", str(tmp_path / "nope.si")]) == 2
        assert "cannot open index" in capsys.readouterr().err

    def test_corrupt_index_is_friendly(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "corrupt.si")
        with open(path, "wb") as handle:
            handle.write(b"not an index at all")
        assert main(["serve", path]) == 2
        assert "cannot open index" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--port", "99999", "port must be in 0..65535 (0 = ephemeral), got 99999"),
            ("--port", "-1", "port must be in 0..65535 (0 = ephemeral), got -1"),
            ("--workers", "0", "max_workers must be >= 1, got 0"),
            ("--header-timeout", "0", "header_timeout must be positive, got 0.0"),
            ("--request-timeout", "-1", "request_timeout must be positive, got -1.0"),
            ("--write-timeout", "0", "write_timeout must be positive, got 0.0"),
            # Used to pass the CLI's own check (< 0) and die in the constructor (<= 0).
            ("--drain-timeout", "0", "drain_timeout must be positive, got 0.0"),
            ("--max-connections", "0", "max_connections must be >= 1, got 0"),
            ("--max-queue", "0", "max_queue must be >= 1, got 0"),
        ],
    )
    def test_an_invalid_knob_is_the_constructors_error(
        self, index_file, capsys, monkeypatch, flag, value, message
    ) -> None:
        # QueryServer.__init__ is the only validator: the CLI prints its
        # ValueError, exits 2 and leaves no service open behind it.
        from repro.service.service import QueryService

        closed = []
        close = QueryService.close
        monkeypatch.setattr(QueryService, "close", lambda self: (closed.append(self), close(self)))
        assert main(["serve", index_file, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert len(closed) == 1


class TestLoadtest:
    def test_loadtest_writes_schema_valid_bench_artifact(
        self, index_file, tmp_path, capsys
    ) -> None:
        out = str(tmp_path / "results")
        assert main([
            "loadtest", index_file,
            "--concurrency", "1", "2",
            "--duration", "0.3",
            "--out", out,
        ]) == 0
        captured = capsys.readouterr()
        assert "0 mismatches" in captured.out
        assert "wrote" in captured.out

        from repro.bench.schema import validate_document

        with open(f"{out}/BENCH_serve_http_throughput.json", encoding="utf-8") as handle:
            document = json.load(handle)
        assert validate_document(document) == []
        assert document["experiment"] == "serve_http_throughput"
        assert document["config"]["params"]["index"] == index_file
        columns = document["result"]["columns"]
        for column in ("concurrency", "qps", "p50_ms", "p95_ms", "p99_ms"):
            assert column in columns
        assert [row[columns.index("concurrency")] for row in document["result"]["rows"]] == [1, 2]
        mismatches = columns.index("mismatches")
        assert all(row[mismatches] == 0 for row in document["result"]["rows"])

    def test_loadtest_runs_the_registered_experiments(self, index_file, tmp_path, capsys) -> None:
        from repro.bench.registry import get_experiment

        out = tmp_path / "results"
        assert main(["loadtest", index_file, "--concurrency", "1", "--duration", "0.2",
                     "--out", str(out)]) == 0
        assert main(["loadtest", index_file, "--mode", "open", "--rate", "100", "250",
                     "--duration", "0.3", "--out", str(out)]) == 0
        assert "0 errors, 0 mismatches" in capsys.readouterr().out
        closed = json.loads((out / "BENCH_serve_http_throughput.json").read_text())
        declared = get_experiment("serve_http_throughput")
        traced = ["qps_traced", "trace_overhead_pct"]  # an experiment-only addition
        assert closed["result"]["columns"] == [c for c in declared.columns if c not in traced]
        assert closed["config"]["metrics"] == declared.metrics
        assert closed["result"]["notes"] == [f"driven by 'repro loadtest' against {index_file!r}"]
        opened = json.loads((out / "BENCH_serve_overload.json").read_text())
        assert opened["result"]["columns"] == get_experiment("serve_overload").columns
        assert opened["config"]["params"]["index"] == index_file
        load, rate = (opened["result"]["columns"].index(c) for c in ("load", "rate_qps"))
        assert [(row[load], row[rate]) for row in opened["result"]["rows"]] == [
            ("100qps", 100.0), ("250qps", 250.0),
        ]

    def test_loadtest_against_external_url(self, index_file, tmp_path, capsys) -> None:
        from repro.serve.server import open_server

        service, thread = open_server(index_file)
        try:
            out = str(tmp_path / "results")
            assert main([
                "loadtest", index_file,
                "--url", thread.url,
                "--concurrency", "1",
                "--duration", "0.2",
                "--out", out,
            ]) == 0
        finally:
            thread.stop()
            service.close()
        captured = capsys.readouterr()
        assert "0 mismatches" in captured.out

    def test_unreachable_url_is_friendly(self, index_file, tmp_path, capsys) -> None:
        assert main([
            "loadtest", index_file,
            "--url", "http://127.0.0.1:9",
            "--duration", "0.2",
            "--out", str(tmp_path),
        ]) == 2
        assert "load test against" in capsys.readouterr().err

    def test_invalid_arguments_are_friendly(self, index_file, tmp_path, capsys) -> None:
        assert main(["loadtest", index_file, "--concurrency", "0"]) == 2
        assert "--concurrency" in capsys.readouterr().err
        assert main(["loadtest", index_file, "--duration", "0"]) == 2
        assert "--duration" in capsys.readouterr().err
        assert main(["loadtest", index_file, "--url", "ftp://x"]) == 2
        assert "http" in capsys.readouterr().err
        assert main(["loadtest", str(tmp_path / "nope.si")]) == 2
        assert "cannot open index" in capsys.readouterr().err
