"""Names and units of everything the benchmark reports.

``BENCHMARK.json`` is the contract the driver reads; these tables are what
the code prints.  ``test_perfbench_smoke.py`` holds the two together.
"""

from __future__ import annotations

import json
from typing import Dict

from perfbench import ROOT

WORKLOADS = ("wh_exec_rs", "fb_point_rs", "http_hot_rs", "live_rw_rs")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "index_bytes_per_node": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "query.parse_ms": "ms",
    "query.decompose_ms": "ms",
    "query.cover_keys_per_query": "count",
    "storage.get_ms": "ms",
    "storage.gets_per_query": "count",
    "storage.page_reads_per_get": "count",
    "storage.tree_height": "count",
    "coding.decode_ms": "ms",
    "coding.postings_per_query": "count",
    "coding.bytes_per_posting": "B",
    "exec.join_ms": "ms",
    "exec.join_share": "ratio",
    "exec.matches_per_posting": "ratio",
    "core.build_s": "s",
    "core.build_nodes_per_s": "1/s",
    "core.keys": "count",
    "core.postings": "count",
    "corpus.generate_s": "s",
    "corpus.store_write_s": "s",
    "service.hit_ms": "ms",
    "service.miss_ms": "ms",
    "service.result_hit_rate": "ratio",
    "service.postings_hit_rate": "ratio",
    "serve.rtt_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.response_bytes": "B",
    "live.add_ms": "ms",
    "live.delete_ms": "ms",
    "live.compact_s": "s",
    "live.write_share": "ratio",
    "live.wal_bytes_per_add": "B",
    "live.segments_end": "count",
    "live.delta_trees_at_query": "count",
    "trace.stage_sum_over_e2e": "ratio",
    "trace.overhead_pct": "%",
}


def load_contract() -> dict:
    """``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
