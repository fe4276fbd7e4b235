#!/usr/bin/env python3
"""Serve concurrent queries from one QueryService behind a thread pool.

The service owns its caches -- one locked LRU map each -- and the B+Tree
serialises only the descents a cache miss makes, so many threads can share
one open index.  This demo

1. builds a small index,
2. replays a skewed workload (a few hot templates, many repeats) through a
   ``ThreadPoolExecutor`` at several pool sizes, and
3. prints the per-pool throughput plus the cache hit rates that keep the
   hot path out of the B+Tree.

Run it from the repository root::

    python examples/concurrent_service.py
"""

from __future__ import annotations

import random
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import Corpus, CorpusGenerator, QueryService, SegmentSet, SubtreeIndex

#: A skewed template mix: the first entries are "hot" and repeat the most.
QUERY_TEMPLATES = [
    "NP(DT)(NN)",
    "S(NP)(VP)",
    "VP(VBZ)(NP)",
    "NP(DT)(JJ)(NN)",
    "S(NP)(VP(VBZ))",
    "S(//NN)",
    "VP(VBZ)(NP(DT)(NN))",
    "NP//NN",
]


def build_workload(requests: int, seed: int = 13) -> list:
    """A Zipf-ish request stream over the templates (hot heads, long tail)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(QUERY_TEMPLATES))]
    return rng.choices(QUERY_TEMPLATES, weights=weights, k=requests)


def main() -> None:
    corpus = Corpus(CorpusGenerator(seed=42).generate(1_000))
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    # A plain index file is the set of one source; its trees are the
    # in-memory corpus here, which no filtering phase has to lock.
    index = SegmentSet.of(
        SubtreeIndex.build(corpus, mss=3, coding="root-split", path=str(workdir / "c.si")), corpus
    )
    print(f"index: {index.key_count:,} keys over {len(corpus)} trees\n")

    workload = build_workload(requests=2_000)
    baseline = None
    for pool_size in (1, 2, 4, 8):
        index.reset_probe_stats()
        service = QueryService(index)
        # One warm-up pass per template so every pool size measures the same
        # steady serving state rather than its own cache-fill transient.
        for text in QUERY_TEMPLATES:
            service.run(text)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            matches = list(pool.map(lambda text: service.run(text).total_matches, workload))
        elapsed = time.perf_counter() - started

        stats = service.stats()
        throughput = len(workload) / elapsed
        baseline = baseline or throughput
        print(
            f"threads={pool_size}: {throughput:8,.0f} queries/s "
            f"({elapsed * 1000:.0f} ms for {len(workload)} requests, "
            f"x{throughput / baseline:.2f} vs 1 thread)"
        )
        print(
            f"  caches: results {stats.results.hit_rate:.1%}, "
            f"plans {stats.plans.hit_rate:.1%}, postings {stats.postings.hit_rate:.1%} "
            f"| index descents {stats.probes.tree_descents}"
        )
        service.close()  # drops its caches; the index stays open

    # Sanity: every request got a deterministic answer.
    assert all(isinstance(count, int) for count in matches)
    index.close()
    print("\ndone; all requests answered from one shared service instance")


if __name__ == "__main__":
    main()
