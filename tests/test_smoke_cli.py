"""Smoke test: the README's 5-minute CLI session, end to end in a temp dir.

Runs ``python -m repro.cli generate / build / query / stats`` as real
subprocesses so the documented quickstart can never rot: if the README
session breaks, this test breaks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("smoke"))


def test_readme_session(workdir) -> None:
    """The exact generate -> build -> query -> stats flow the README documents."""
    generate = run_cli(
        "generate", "--sentences", "300", "--seed", "7", "--out", "corpus.penn", cwd=workdir
    )
    assert generate.returncode == 0, generate.stderr
    assert "300 parse trees" in generate.stdout

    build = run_cli(
        "build", "corpus.penn", "--mss", "3", "--coding", "root-split",
        "--out", "corpus.si", cwd=workdir,
    )
    assert build.returncode == 0, build.stderr
    assert "built root-split index" in build.stdout

    query = run_cli(
        "query", "corpus.si", "NP(DT)(NN)", "S(NP)(VP(VBZ))", cwd=workdir
    )
    assert query.returncode == 0, query.stderr
    assert "NP(DT)(NN):" in query.stdout
    assert "matches" in query.stdout

    repeat = run_cli(
        "query", "corpus.si", "NP(DT)(NN)", "--repeat", "5", "--cache-stats", cwd=workdir
    )
    assert repeat.returncode == 0, repeat.stderr
    assert "warm avg=" in repeat.stdout
    assert "cache: plans" in repeat.stdout

    batch = run_cli(
        "query", "corpus.si", "NP(DT)", "NP(DT)(NN)", "--batch", cwd=workdir
    )
    assert batch.returncode == 0, batch.stderr
    assert batch.stdout.count("matches") >= 2

    traced = run_cli("query", "corpus.si", "NP(DT)(NN)", "--trace", cwd=workdir)
    assert traced.returncode == 0, traced.stderr
    assert "trace query" in traced.stdout
    for stage in ("prepare", "fetch_postings", "fetch_key", "join"):
        assert stage in traced.stdout, stage

    stats = run_cli("stats", "corpus.si", "--top", "3", cwd=workdir)
    assert stats.returncode == 0, stats.stderr
    assert "coding          : root-split" in stats.stdout
    assert "top 3 keys" in stats.stdout


def test_readme_sharded_session(workdir) -> None:
    """Step 5 of the README quickstart: sharded build, manifest query, JSON stats."""
    build = run_cli(
        "build", "corpus.penn", "--shards", "4", "--workers", "1",
        "--out", "sharded.si", cwd=workdir,
    )
    assert build.returncode == 0, build.stderr
    assert "4 shards" in build.stdout
    assert "manifest: sharded.si.manifest.json" in build.stdout

    query = run_cli("query", "sharded.si.manifest.json", "NP(DT)(NN)", cwd=workdir)
    assert query.returncode == 0, query.stderr
    assert "NP(DT)(NN):" in query.stdout

    stats = run_cli("stats", "sharded.si.manifest.json", "--json", cwd=workdir)
    assert stats.returncode == 0, stats.stderr
    payload = json.loads(stats.stdout)
    assert (payload["flavor"], payload["partitioner"]) == ("sharded", "hash")
    assert [row["segment_id"] for row in payload["sources"]] == [0, 1, 2, 3]


def test_readme_live_session(workdir) -> None:
    """Step 6 of the README quickstart: the add -> query -> compact workflow."""
    build = run_cli("build", "corpus.penn", "--live", "--out", "live.si", cwd=workdir)
    assert build.returncode == 0, build.stderr
    assert "built live root-split index" in build.stdout
    assert "manifest: live.si.live.json" in build.stdout

    generate = run_cli(
        "generate", "--sentences", "50", "--seed", "1", "--out", "more.penn", cwd=workdir
    )
    assert generate.returncode == 0, generate.stderr

    add = run_cli("add", "live.si.live.json", "more.penn", cwd=workdir)
    assert add.returncode == 0, add.stderr
    assert "added 50 trees (tids 300..349)" in add.stdout

    query = run_cli("query", "live.si.live.json", "NP(DT)(NN)", cwd=workdir)
    assert query.returncode == 0, query.stderr
    assert "NP(DT)(NN):" in query.stdout

    delete = run_cli("delete", "live.si.live.json", "3", cwd=workdir)
    assert delete.returncode == 0, delete.stderr
    assert "deleted 1 of 1" in delete.stdout

    compact = run_cli("compact", "live.si.live.json", cwd=workdir)
    assert compact.returncode == 0, compact.stderr
    assert "compacted to epoch 1" in compact.stdout

    stats = run_cli("stats", "live.si.live.json", cwd=workdir)
    assert stats.returncode == 0, stats.stderr
    assert "kind            : live (epoch 1)" in stats.stdout
    assert "trees indexed   : 349" in stats.stdout  # 300 + 50 - 1

    explain = run_cli(
        "query", "live.si.live.json", "S(NP)(VP(VBZ))", "--explain", cwd=workdir
    )
    assert explain.returncode == 0, explain.stderr
    assert "cover:" in explain.stdout
    assert "join phase not executed" in explain.stdout


def test_readme_serving_session(workdir) -> None:
    """Step 7 of the README quickstart: serve over HTTP, then load-test it."""
    import json
    import urllib.request

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # Foreground server on an ephemeral port (the README shows --port 8321;
    # port 0 keeps the test safe to run concurrently).
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "corpus.si", "--port", "0"],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        assert "serving plain index 'corpus.si' on http://" in banner, banner
        url = banner.rsplit(" on ", 1)[1].strip()
        with urllib.request.urlopen(url + "/healthz", timeout=10) as response:
            assert json.load(response)["status"] == "ok"
    finally:
        server.terminate()
        server.wait(timeout=10)

    # Self-served load test, as in the README (shorter duration for CI).
    loadtest = run_cli(
        "loadtest", "corpus.si", "--concurrency", "1", "2",
        "--duration", "0.3", "--out", "results", cwd=workdir,
    )
    assert loadtest.returncode == 0, loadtest.stderr
    assert "== Serve HTTP throughput ==" in loadtest.stdout  # the registered experiment's table
    assert "0 errors, 0 mismatches" in loadtest.stdout
    assert (Path(workdir) / "results" / "BENCH_serve_http_throughput.json").exists()


def test_malformed_query_fails_cleanly(workdir) -> None:
    """A malformed query exits non-zero with a message, never a traceback."""
    result = run_cli("query", "corpus.si", "NP(((", cwd=workdir)
    assert result.returncode == 2
    assert "cannot parse query" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_index_fails_cleanly(workdir) -> None:
    result = run_cli("query", "no-such-index.si", "NP", cwd=workdir)
    assert result.returncode == 2
    assert "cannot open index" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (Path(workdir) / "no-such-index.si").exists()
