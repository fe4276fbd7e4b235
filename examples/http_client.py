#!/usr/bin/env python3
"""Talk to the HTTP serving layer with nothing but the standard library.

The server speaks plain HTTP/1.1 with JSON bodies, so any client works;
this demo uses ``urllib``. It

1. builds a small index and serves it on an ephemeral port
   (``repro.serve.open_server`` — the same thing ``repro serve`` runs in
   the foreground),
2. runs single queries over ``POST /query`` and checks the answers match
   an in-process ``service.run``,
3. sends one ``POST /query/batch``, answered by a single ``run_many`` call
   server-side (each distinct cover key fetched once), and
4. scrapes ``GET /stats`` and ``GET /metrics`` to show what a dashboard
   would see.

Run it from the repository root::

    python examples/http_client.py

Against a server you started yourself (``python -m repro.cli serve
corpus.si --port 8321``) only the URL changes — see ``one_query`` below.
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

from repro import Corpus, CorpusGenerator, SubtreeIndex
from repro.serve import open_server

QUERIES = ["NP(DT)(NN)", "S(NP)(VP)", "VP(VBZ)(NP)", "NP(DT)(JJ)(NN)"]


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def one_query(base_url: str, text: str) -> dict:
    """The ``result`` dict for one query -- works against any repro server."""
    return post_json(base_url + "/query", {"query": text})["result"]


def main() -> None:
    corpus = Corpus(CorpusGenerator(seed=7).generate(500))
    workdir = Path(tempfile.mkdtemp(prefix="repro-http-"))
    SubtreeIndex.build(corpus, mss=3, coding="root-split", path=str(workdir / "c.si")).close()

    service, thread = open_server(str(workdir / "c.si"))
    try:
        base = thread.url
        health = get_json(base + "/healthz")
        print(f"serving a {health['flavor']} index at {base}\n")

        # --- single queries, verified against the in-process service -----
        for text in QUERIES:
            served = one_query(base, text)
            direct = service.run(text)
            assert served["total_matches"] == direct.total_matches, text
            print(f"  {text:24s} -> {served['total_matches']:5d} matches "
                  f"in {served['stats']['elapsed_seconds'] * 1000:.2f} ms")

        # --- one batch: shared cover keys are fetched once ---------------
        batch = post_json(base + "/query/batch", {"queries": QUERIES + [QUERIES[0]]})
        print(f"\nbatch of {batch['count']} (one duplicate) answered in order:")
        print("  " + ", ".join(str(item["result"]["total_matches"]) for item in batch["results"]))

        # --- observability ----------------------------------------------
        stats = get_json(base + "/stats")
        caches = stats["service"]["caches"]
        print(f"\n/stats: {stats['service']['queries']} queries, "
              f"result-cache hit rate {caches['results']['hit_rate']:.0%}, "
              f"postings {caches['postings']['hit_rate']:.0%}, "
              f"{stats['service']['batches']} batch(es), "
              f"{stats['server']['query_answers']['loop']} answer(s) on the event loop")

        with urllib.request.urlopen(base + "/metrics") as response:
            families = [line for line in response.read().decode().splitlines()
                        if line.startswith("# TYPE")]
        print(f"/metrics: {len(families)} metric families, e.g.")
        for line in families[:4]:
            print(f"  {line}")
    finally:
        thread.stop()
        service.close()
    print("\ndone; server stopped cleanly")


if __name__ == "__main__":
    main()
