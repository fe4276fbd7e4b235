"""Command-line interface for the subtree index.

Ten subcommands cover the everyday workflow:

``generate``
    sample a synthetic treebank and write it as bracketed Penn lines;
``build``
    build a subtree index (and the data file) over a Penn corpus file --
    optionally sharded (``--shards N``) with parallel worker processes, or
    mutable (``--live``: base segment + write-ahead log);
``query``
    evaluate one or more queries against a built index (plain, sharded or
    live); ``--explain`` prints the cover plan, per-stage posting counts, the
    join order with each step's predicates and the generated kernel, without
    running the join;
``add`` / ``delete`` / ``compact``
    mutate a live index: append trees from a Penn file, tombstone trees by
    tid, and fold the delta + tombstones into immutable segments;
``stats``
    print metadata and key statistics of a built index (``--json`` for a
    machine-readable dump, including the per-source breakdown of a sharded
    or live index and the live index's delta/WAL sizes);
``bench``
    list and run the registered experiments (text table + machine-readable
    ``BENCH_<experiment>.json`` per run);
``serve``
    serve a built index (plain, sharded or live) over HTTP: ``/query``,
    ``/query/batch``, ``/stats``, ``/healthz`` and a
    Prometheus ``/metrics`` endpoint;
``loadtest``
    run the registered ``serve_http_throughput`` (or, ``--mode open``,
    ``serve_overload``) experiment against an index -- self-served on an
    ephemeral port, or a server started elsewhere (``--url``) -- verifying
    every response against the in-process ground truth and writing the
    experiment's schema-valid ``BENCH_<experiment>.json``.

Example session::

    python -m repro.cli generate --sentences 1000 --out corpus.penn
    python -m repro.cli build corpus.penn --mss 3 --coding root-split --out corpus.si
    python -m repro.cli build corpus.penn --shards 4 --workers 4 --out big.si
    python -m repro.cli build corpus.penn --live --out corpus.si
    python -m repro.cli query corpus.si "NP(DT)(NN)" "S(NP)(VP(VBZ))"
    python -m repro.cli query big.si.manifest.json "NP(DT)(NN)"
    python -m repro.cli query corpus.si "NP(DT)(NN)" --repeat 50 --cache-stats
    python -m repro.cli query corpus.si "NP(DT)" "NP(DT)(NN)" --batch
    python -m repro.cli query corpus.si "S(NP)(VP)" --explain
    python -m repro.cli add corpus.si.live.json more.penn
    python -m repro.cli delete corpus.si.live.json 17 42
    python -m repro.cli compact corpus.si.live.json
    python -m repro.cli stats corpus.si --json
    python -m repro.cli serve corpus.si --port 8321
    python -m repro.cli loadtest corpus.si --concurrency 1 4 --duration 2 --out results/
    python -m repro.cli loadtest corpus.si --url http://127.0.0.1:8321
    python -m repro.cli bench list
    python -m repro.cli bench run figure8_index_size --out results/ --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from repro import obs
from repro.coding.base import coding_names
from repro.coding.filter_based import FilterBasedCoding
from repro.core.index import SubtreeIndex
from repro.core.manifest import ManifestError
from repro.core.segments import SegmentSet
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus, TreeStore, data_file_path
from repro.exec.plan import JoinPlan, build_plan, cover_relations
from repro.live import LiveIndex, WalError
from repro.service.service import PreparedQuery, QueryService
from repro.shard import build_sharded
from repro.storage.bptree import BPlusTreeError
from repro.storage.pager import PageError
from repro.trees.penn import scan_penn

#: Exceptions any "open an index/service" step may raise, mapped to exit 2.
_OPEN_ERRORS = (OSError, ValueError, ManifestError, WalError, BPlusTreeError, PageError)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _below(option: str, value: Optional[int], least: int) -> bool:
    """Whether *option* was given a *value* under *least*, said in one ``error:`` line."""
    if value is None or value >= least:
        return False
    print(f"error: {option} must be at least {least}, got {value}", file=sys.stderr)
    return True


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic corpus of parse trees."""
    if _below("--sentences", args.sentences, 1):
        return 2
    generator = CorpusGenerator(seed=args.seed)
    corpus = Corpus(generator.generate(args.sentences))
    corpus.save(args.out)
    print(f"wrote {len(corpus)} parse trees ({corpus.total_nodes():,} nodes) to {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Build a (possibly sharded) subtree index over a Penn corpus file."""
    if _below("--mss", args.mss, 1) or _below("--shards", args.shards, 1) or _below("--workers", args.workers, 1):
        return 2
    if not os.path.isfile(args.corpus):
        print(f"error: corpus file not found: {args.corpus!r}", file=sys.stderr)
        return 2
    if args.live and args.shards > 1:
        print("error: --live and --shards cannot be combined", file=sys.stderr)
        return 2
    if args.shards == 1 and not args.live and args.workers is not None:
        print(
            "warning: --workers only applies to sharded builds; "
            "pass --shards N (> 1) for a parallel build",
            file=sys.stderr,
        )
    try:
        corpus = Corpus.load(args.corpus)
    except (OSError, ValueError) as error:  # e.g. a malformed Penn line
        print(f"error: cannot read corpus {args.corpus!r}: {error}", file=sys.stderr)
        return 2

    # Three constructions (they differ), one report.
    if args.live:
        index = LiveIndex.create(args.out, mss=args.mss, coding=args.coding, trees=list(corpus))
        what, detail = f"live {args.coding} index", f"epoch {index.epoch}"
    elif args.shards > 1:
        index = SegmentSet.open(build_sharded(
            corpus,
            mss=args.mss,
            coding=args.coding,
            path=args.out,
            shards=args.shards,
            workers=args.workers,
        ))
        what = f"{args.coding} index"
        detail = (
            f"{index.segment_count} shards ({index.manifest.partitioner} partitioner), "
            f"{index.metadata.build_seconds:.2f}s wall"
        )
    else:
        index = SegmentSet.of(
            SubtreeIndex.build(corpus, mss=args.mss, coding=args.coding, path=args.out),
            TreeStore.build(data_file_path(args.out), corpus),
        )
        what, detail = f"{args.coding} index", f"{index.metadata.build_seconds:.2f}s"
    print(
        f"built {what} over {len(corpus)} trees: {index.key_count:,} keys, "
        f"{index.posting_count:,} postings, {index.size_bytes():,} bytes, {detail}"
    )
    if index.manifest_path is not None:
        print(f"manifest: {index.manifest_path}")
    index.close()
    return 0


def _print_result(args: argparse.Namespace, text: str, result, extra: str = "") -> None:
    print(
        f"{text}: {result.total_matches} matches in {len(result.matches_per_tree)} trees "
        f"({result.stats.elapsed_seconds * 1000:.1f} ms, cover={result.stats.cover_size}, "
        f"joins={result.stats.join_count}{extra})"
    )
    if args.show_tids:
        print("  tids:", ", ".join(str(tid) for tid in result.matched_tids[: args.limit]))


def _explain_query(service: QueryService, text: str) -> None:
    """Print the cover plan, per-stage posting counts and join plan of one query.

    Runs stages 1 (decomposition) and 2 (posting fetch) and plans stage 3 -- the
    join order ``run`` executes, each step's predicates, the generated kernel --
    but executes neither the join nor the filtering phase.
    """
    prepared = service.prepare(text)
    cover = prepared.cover
    index = service.index
    postings = [index.lookup(key) for key in prepared.key_bytes]
    plan = None
    if len(cover) > 1 and not isinstance(index.coding, FilterBasedCoding):
        relations = cover_relations(cover, postings)
        plan = build_plan(prepared.query, relations, cover.edges, cover.twin_pairs, prepared.order)
    print(f"{text}:")
    print(
        f"  plan: strategy={service.strategy}, mss={index.mss}, "
        f"coding={index.coding.name}"
    )
    print(f"  cover: {len(cover)} subtree(s), {cover.join_count} join(s)")
    for key, plist in zip(prepared.key_bytes, postings):
        print(f"    {key.decode('utf-8'):<40s} {len(plist):,} postings")
    total = sum(len(plist) for plist in postings)
    print(f"  fetch total: {total:,} postings (join phase not executed)")
    if plan is not None and plan.steps:
        _explain_join(prepared, plan)


def _explain_join(prepared: PreparedQuery, plan: JoinPlan) -> None:
    """Print *plan*: join order, predicates in query-node terms, kernel source."""
    labels = prepared.query.label_of
    names = [label if labels.count(label) == 1 else f"{label}#{item}" for item, label in enumerate(labels)]
    print(f"  join: {len(plan.steps)} step(s), left-deep from the smallest relation")
    at: dict = {}  # binding offset of a pre value -> the query node bound there
    for number, step in enumerate(plan.steps, 1):
        relation = plan.relations[step.relation]
        binds = sorted(relation.nodes, key=relation.nodes.get)
        width = 3 * len(at)
        at.update({width + 3 * slot: names[item] for slot, item in enumerate(binds)})
        predicates = [f"{at[bound]}.pre == {at[own]}.pre" for bound, own in step.equal]
        predicates += [
            f"{at[upper]} \u2283 {at[lower]}" + (" (child)" if child else "")
            for upper, lower, child in step.checks
        ]
        predicates += [f"{at[first]}.pre != {at[second]}.pre" for first, second in step.distinct]
        print(
            f"    {number}. {prepared.key_bytes[step.relation].decode('utf-8'):<30s} "
            f"{relation.cardinality:>7,} rows  binds {', '.join(names[item] for item in binds)}"
            + (f": {' and '.join(predicates)}" if predicates else "")
        )
    print("  kernel:")
    for line in plan.kernel_source.splitlines():
        print(f"    {line}")


def cmd_query(args: argparse.Namespace) -> int:
    """Run queries against a built index through the query service."""
    if _below("--repeat", args.repeat, 1) or _below("--limit", args.limit, 0):
        return 2
    if args.batch and args.repeat > 1:
        print("error: --batch and --repeat cannot be combined", file=sys.stderr)
        return 2
    if args.explain and (args.batch or args.repeat > 1):
        print("error: --explain cannot be combined with --batch/--repeat", file=sys.stderr)
        return 2
    if args.trace and args.explain:
        print("error: --trace cannot be combined with --explain "
              "(--explain does not execute the query)", file=sys.stderr)
        return 2
    try:
        # With --repeat the point is to measure the plan+posting caches, so
        # disable the result cache; otherwise every repeat after the first
        # would be a ~free result-cache hit and "warm" would mean "hot".
        service = QueryService.open(
            args.index, result_cache_size=0 if args.repeat > 1 else 1024
        )
    except _OPEN_ERRORS as error:
        print(f"error: cannot open index {args.index!r}: {error}", file=sys.stderr)
        return 2

    status = 0
    valid: List[str] = []
    for text in args.queries:
        try:
            service.prepare(text)
        except ValueError as error:
            print(f"error: cannot parse query {text!r}: {error}", file=sys.stderr)
            status = 2
        else:
            valid.append(text)

    tracer: Optional[obs.Tracer] = None
    if args.trace:
        tracer = obs.enable(obs.Tracer())

    def print_last_trace() -> None:
        if tracer is None:
            return
        for record in tracer.last(1):
            print(obs.format_trace(record))

    try:
        if args.explain:
            for text in valid:
                _explain_query(service, text)
        elif args.batch:
            # One batch: distinct cover keys are fetched from the index once.
            # Per-query ms covers each join only; the shared prepare+fetch
            # work is reported in the batch total line below.
            batch_started = time.perf_counter()
            results = service.run_many(valid)
            batch_ms = (time.perf_counter() - batch_started) * 1000
            for text, result in zip(valid, results):
                _print_result(args, text, result)
            print(f"batch: {len(valid)} queries in {batch_ms:.1f} ms total")
            print_last_trace()
        else:
            for text in valid:
                result = service.run(text)
                if args.repeat > 1:
                    cold_ms = result.stats.elapsed_seconds * 1000
                    warm_started = time.perf_counter()
                    for _ in range(args.repeat - 1):
                        result = service.run(text)
                    warm_ms = (time.perf_counter() - warm_started) * 1000 / (args.repeat - 1)
                    extra = f", cold={cold_ms:.1f} ms, warm avg={warm_ms:.2f} ms x{args.repeat - 1}"
                    _print_result(args, text, result, extra)
                else:
                    _print_result(args, text, result)
                # The most recent execution's span tree (with --repeat,
                # that is the final warm run).
                print_last_trace()
        if args.cache_stats:
            stats = service.stats()
            print(
                f"cache: plans {stats.plans.hits}/{stats.plans.lookups} hits, "
                f"postings {stats.postings.hits}/{stats.postings.lookups} hits, "
                f"index probes {stats.probes.gets} "
                f"({stats.probes.tree_descents} tree descents, "
                f"{stats.probes.node_decodes} nodes decoded)"
            )
    except RuntimeError as error:
        # e.g. filter-based coding without its .data file next to the index
        print(f"error: {error}", file=sys.stderr)
        status = 2
    finally:
        if tracer is not None:
            obs.disable()
        service.close()
    return status


# ----------------------------------------------------------------------
# Live-index mutation commands
# ----------------------------------------------------------------------
def _open_live(path: str) -> Optional[LiveIndex]:
    """Open *path* as a live index; prints a friendly error and returns None."""
    try:
        return LiveIndex.open(path)  # refuses a plain or sharded index by name
    except _OPEN_ERRORS as error:
        print(f"error: cannot open live index {path!r}: {error}", file=sys.stderr)
        return None


def cmd_add(args: argparse.Namespace) -> int:
    """Append trees from a Penn-bracket file to a live index."""
    if not os.path.isfile(args.corpus):
        print(f"error: corpus file not found: {args.corpus!r}", file=sys.stderr)
        return 2
    live = _open_live(args.index)
    if live is None:
        return 2
    try:
        try:  # the whole file is checked before the first tree is added
            with open(args.corpus, "r", encoding="utf-8") as handle:
                lines = [line.strip() for line in handle]
            texts = [line for line in lines if line and not line.startswith("#")]
            for text in texts:
                scan_penn(text)
        except (OSError, ValueError) as error:  # e.g. a malformed Penn line
            print(f"error: cannot read corpus {args.corpus!r}: {error}", file=sys.stderr)
            return 2
        tids = [live.add_tree(text) for text in texts]
        if tids:
            print(
                f"added {len(tids)} trees (tids {tids[0]}..{tids[-1]}): "
                f"delta {live.delta.tree_count} trees / "
                f"{live.delta.posting_count:,} postings, "
                f"wal {live.wal.op_count} ops / {live.wal.size_bytes():,} bytes"
            )
        else:
            print(f"no trees in {args.corpus!r}; nothing added")
    finally:
        live.close()
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Tombstone trees of a live index by tid."""
    live = _open_live(args.index)
    if live is None:
        return 2
    status = 0
    deleted = 0
    try:
        for tid in args.tids:
            try:
                live.delete_tree(tid)
            except KeyError:
                print(f"error: no tree with tid {tid}", file=sys.stderr)
                status = 2
            else:
                deleted += 1
        print(
            f"deleted {deleted} of {len(args.tids)} trees: "
            f"{len(live.tombstones)} tombstones pending compaction, "
            f"{live.tree_count:,} trees live"
        )
    finally:
        live.close()
    return status


def cmd_compact(args: argparse.Namespace) -> int:
    """Fold a live index's delta and tombstones into immutable segments."""
    live = _open_live(args.index)
    if live is None:
        return 2
    try:
        stats = live.compact()
        if stats.noop:
            print(f"nothing to compact (epoch stays {stats.epoch})")
        else:
            print(
                f"compacted to epoch {stats.epoch} in {stats.seconds:.2f}s: "
                f"flushed {stats.flushed_trees} delta trees, "
                f"purged {stats.purged_tombstones} tombstones, "
                f"rewrote {stats.segments_rewritten} and dropped "
                f"{stats.segments_dropped} segment(s), "
                f"truncated {stats.wal_bytes_truncated:,} WAL bytes"
            )
            print(f"segments now: {live.segment_count}, trees: {live.tree_count:,}")
    finally:
        live.close()
    return 0


def _stats_payload(path: str, index: SegmentSet) -> dict:
    """The machine-readable metadata of *index*, whatever kind it is.

    A segmented index adds its manifest's ``epoch`` / ``partitioner`` and
    whatever it reports through ``stats_extras()``: one row per file under
    ``sources`` and, for a live index, the delta / tombstone / WAL state
    under ``live``.  A plain index file adds neither.
    """
    meta = index.metadata
    manifest = index.manifest
    payload = {
        "index": path,
        "flavor": index.flavor,
        "coding": meta.coding,
        "mss": meta.mss,
        "tree_count": meta.tree_count,
        "key_count": meta.key_count,
        "posting_count": meta.posting_count,
        "size_bytes": index.size_bytes(),
        "storage": index.page_census(),
        "build_seconds": meta.build_seconds,
        # A key indexed by k shards/segments counts k times in that index's
        # key_count; "distinct" means the global unique-subtree count.
        "key_count_semantics": "distinct" if manifest is None else "per-source-sum",
    }
    if manifest is not None:
        payload["epoch"] = manifest.epoch
        payload["partitioner"] = manifest.partitioner
    payload.update(index.stats_extras())
    return payload


def cmd_stats(args: argparse.Namespace) -> int:
    """Print metadata and the largest posting lists of an index."""
    if _below("--top", args.top, 0):
        return 2
    try:
        index = SegmentSet.open(args.index)  # whatever the file says it is
    except _OPEN_ERRORS as error:
        print(f"error: cannot open index {args.index!r}: {error}", file=sys.stderr)
        return 2

    payload = _stats_payload(args.index, index)
    if args.json:
        print(json.dumps(payload, indent=2))
        index.close()
        return 0

    kind = payload["flavor"]
    if "epoch" in payload:
        partitioner = payload["partitioner"]
        kind += f" (epoch {payload['epoch']}" + (f", {partitioner} partitioner)" if partitioner else ")")
    distinct = payload["key_count_semantics"] == "distinct"
    print(f"index file      : {args.index}")
    print(f"kind            : {kind}")
    print(f"coding          : {payload['coding']}")
    print(f"mss             : {payload['mss']}")
    print(f"trees indexed   : {payload['tree_count']:,}")
    # A key indexed by several sources counts once per source.
    print(f"{'unique keys     ' if distinct else 'keys (src sum)  '}: {payload['key_count']:,}")
    print(f"total postings  : {payload['posting_count']:,}")
    print(f"size on disk    : {payload['size_bytes']:,} bytes")
    for name, row in sorted(payload["storage"].items()):
        print(
            f"  {name:<9s} {row['pages']:>6,} pages  {row['payload_bytes']:>11,} payload  "
            f"{row['slack_bytes']:>9,} slack"
        )
    print(f"build time      : {payload['build_seconds']:.2f} s")
    if "sources" in payload:
        print(f"sources         : {len(payload['sources'])}")
        print("  id   trees    keys      postings   bytes        tids         build s")
        for row in payload["sources"]:
            tids = "-" if row["min_tid"] is None else f"{row['min_tid']}-{row['max_tid']}"
            print(
                f"  {row['segment_id']:<4d} {row['tree_count']:<8,} {row['key_count']:<9,} "
                f"{row['posting_count']:<10,} {row['size_bytes']:<12,} {tids:<12s} "
                f"{row['build_seconds']:.2f}"
            )
    live = payload.get("live")
    if live is not None:
        print(
            f"delta           : {live['delta_trees']} trees, "
            f"{live['delta_keys']:,} keys, {live['delta_postings']:,} postings"
        )
        print(f"tombstones      : {live['tombstones']}")
        print(f"wal             : {live['wal_ops']} ops, {live['wal_bytes']:,} bytes")
    if args.top:
        ranked = sorted(
            ((len(postings), key) for key, postings in index.items()), reverse=True
        )[: args.top]
        print(f"top {args.top} keys by posting-list length:")
        for length, key in ranked:
            print(f"  {key.decode('utf-8'):40s} {length:,}")
    index.close()
    return 0


# ----------------------------------------------------------------------
# HTTP serving and load testing
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    """Serve an index over HTTP until interrupted, then drain gracefully."""
    import asyncio
    import signal

    from repro.serve.server import ENDPOINTS, QueryServer

    try:
        service = QueryService.open(args.index)
    except _OPEN_ERRORS as error:
        print(f"error: cannot open index {args.index!r}: {error}", file=sys.stderr)
        return 2
    try:
        # The constructor is the one validator of the server's knobs.
        server = QueryServer(
            service,
            host=args.host,
            port=args.port,
            max_workers=args.workers,
            header_timeout=args.header_timeout,
            request_timeout=args.request_timeout,
            write_timeout=args.write_timeout,
            max_connections=args.max_connections,
            max_queue=args.max_queue,
            drain_timeout=args.drain_timeout,
            index_path=args.index,
            trace=args.trace,
            trace_log=args.trace_log,
            slow_ms=args.slow_ms,
        )
    except ValueError as error:
        service.close()
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        await server.start()
        print(f"serving {service.index.flavor} index {args.index!r} on {server.url}", flush=True)
        print(f"endpoints: {', '.join(ENDPOINTS)} (SIGTERM/ctrl-c drains and exits)", flush=True)
        if server.trace:
            detail = f" -> {args.trace_log}" if args.trace_log else ""
            slow = f", slow-query threshold {args.slow_ms} ms" if args.slow_ms is not None else ""
            print(f"tracing: enabled{detail}{slow}")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except NotImplementedError:  # pragma: no cover - non-Unix event loops
                pass
        if not installed:  # pragma: no cover - non-Unix event loops
            await server.serve_forever()
            return
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
        print("draining: listener closed, finishing in-flight requests ...", flush=True)
        summary = await server.drain()
        forced = summary["forced_connections"]
        detail = f", {forced} connections force-closed" if forced else ""
        print(f"drained in {summary['drain_seconds']:.2f}s{detail}", flush=True)

    try:
        asyncio.run(_serve())
    except OSError as error:  # e.g. the port is already bound
        print(f"error: cannot serve on {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - SIGINT before the handler lands
        pass
    finally:
        service.close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Closed- or open-loop load test of the WH workload against an index.

    Runs the registered ``serve_http_throughput`` (closed) or
    ``serve_overload`` (open) experiment with the user's index, URL and
    sweep in place of the generated corpus and the declared levels.
    """
    from dataclasses import replace

    from repro.bench.experiments import TRACED_COLUMNS
    from repro.bench.registry import get_experiment
    from repro.bench.runner import ExperimentRunner
    from repro.serve.loadgen import parse_base_url

    if any(level < 1 for level in args.concurrency):
        print(
            f"error: --concurrency levels must be at least 1, got {args.concurrency}",
            file=sys.stderr,
        )
        return 2
    if args.mode == "open" and any(rate <= 0 for rate in args.rate):
        print(f"error: --rate values must be positive, got {args.rate}", file=sys.stderr)
        return 2
    if args.duration <= 0:
        print(f"error: --duration must be positive, got {args.duration}", file=sys.stderr)
        return 2
    if args.url is not None:
        try:
            parse_base_url(args.url)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        with QueryService.open(args.index) as service:
            metadata = service.index.metadata
    except _OPEN_ERRORS as error:
        print(f"error: cannot open index {args.index!r}: {error}", file=sys.stderr)
        return 2

    overrides = {
        "index": args.index,
        "url": args.url,
        "duration_seconds": args.duration,
        # What the table's description says was measured.
        "sentences": metadata.tree_count,
        "coding": metadata.coding,
        "mss": metadata.mss,
    }
    if args.mode == "open":
        experiment = get_experiment("serve_overload")
        overrides.update(
            rates=tuple((f"{rate:g}qps", rate) for rate in args.rate),
            capacity=1.0,  # the rates are absolute, not multiples of a calibration
            arrivals=args.arrivals,
        )
    else:
        # The traced pass stays an experiment-only addition: tracing cannot
        # be toggled in a server reached over --url.
        experiment = get_experiment("serve_http_throughput").without(*TRACED_COLUMNS)
        overrides.update(concurrency=tuple(args.concurrency), traced=False)
    # The declared notes describe the declared sweep; this one describes ours.
    experiment = replace(experiment, notes=("driven by 'repro loadtest' against {index!r}",))
    target = args.url or f"{args.index!r} (self-served on an ephemeral port)"
    print(f"load-testing {target} ...", flush=True)
    with ExperimentRunner(out_dir=args.out, scale=1.0) as runner:
        try:
            report = runner.run(experiment, overrides=overrides)
        except OSError as error:
            print(f"error: load test against {target} failed: {error}", file=sys.stderr)
            return 2
    print(report.result.to_text())
    print(f"wrote {report.json_path}")
    # The exact-gated columns of both experiments count failures (requests
    # that erred, responses that differed from QueryService.run).
    failures = {column: sum(report.result.column(column)) for column in experiment.metrics}
    print(", ".join(f"{count} {column}" for column, count in failures.items()))
    if any(failures.values()):
        print("error: requests failed or were answered differently from QueryService.run",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Experiment orchestration (bench list / run)
# ----------------------------------------------------------------------
def _bench_list(args: argparse.Namespace) -> int:
    from repro.bench.registry import all_experiments

    declared = [experiment.as_dict() for experiment in all_experiments()]
    if args.json:
        print(json.dumps(declared, indent=2))
        return 0
    width = max(len(config["name"]) for config in declared)
    for config in declared:
        print(f"{config['name']:<{width}s}  {config['title']:<16s} {config['description']}")
    print(f"{len(declared)} experiments registered")
    return 0


def _bench_run(args: argparse.Namespace) -> int:
    from repro.bench.registry import UnknownExperimentError, experiment_names
    from repro.bench.runner import ExperimentRunner

    names = args.names or experiment_names()
    try:
        runner = ExperimentRunner(
            workdir=args.workdir, out_dir=args.out, seed=args.seed, scale=args.scale,
            trace=args.trace,
        )
    except ValueError as error:  # a scale that is not a positive number
        print(f"error: {error}", file=sys.stderr)
        return 2
    documents = []
    try:
        for name in names:
            try:
                report = runner.run(name)
            except UnknownExperimentError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return 2
            documents.append(report.document)
            if args.json:
                continue
            trace_note = f" (+ {report.trace_path})" if report.trace_path else ""
            print(
                f"{report.experiment.name}: {len(report.result.rows)} rows in "
                f"{report.wall_seconds:.2f}s -> {report.json_path}{trace_note}"
            )
    finally:
        runner.close()
    if args.json:
        print(json.dumps(documents if len(documents) != 1 else documents[0], indent=2))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Dispatch `bench list` / `bench run`."""
    if args.action == "list":
        if args.names:
            print("error: 'bench list' takes no experiment names", file=sys.stderr)
            return 2
        return _bench_list(args)
    if args.action == "run":
        return _bench_run(args)
    print("error: pass an action (list, run)", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subtree indexing and querying over syntactically annotated trees",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic parsed corpus")
    generate.add_argument("--sentences", type=int, default=1000, help="number of sentences")
    generate.add_argument("--seed", type=int, default=0, help="random seed")
    generate.add_argument("--out", required=True, help="output Penn-bracket file")
    generate.set_defaults(func=cmd_generate)

    build = subparsers.add_parser("build", help="build a subtree index over a corpus file")
    build.add_argument("corpus", help="Penn-bracket corpus file (one tree per line)")
    build.add_argument("--mss", type=int, default=3, help="maximum subtree size")
    build.add_argument("--coding", choices=coding_names(), default="root-split")
    build.add_argument("--out", required=True, help="output index file (manifest when sharded)")
    build.add_argument(
        "--shards", type=int, default=1,
        help="partition the index into N shards (writes <out>.manifest.json + shard files)",
    )
    build.add_argument(
        "--workers", type=int, default=None,
        help="parallel build processes (default: one per shard, capped at the core count)",
    )
    build.add_argument(
        "--live", action="store_true",
        help="build a mutable live index (writes <out>.live.json + segment + WAL files; "
             "grow it later with 'add'/'delete'/'compact')",
    )
    build.set_defaults(func=cmd_build)

    query = subparsers.add_parser("query", help="evaluate queries against an index")
    query.add_argument("index", help="index file built with the 'build' command")
    query.add_argument("queries", nargs="+", help="queries, e.g. 'NP(DT)(NN)' or 'S//NN'")
    query.add_argument("--show-tids", action="store_true", help="print matching tree ids")
    query.add_argument("--limit", type=int, default=20, help="max tree ids to print")
    query.add_argument(
        "--repeat", type=int, default=1,
        help="run each query N times through the service caches and report cold vs warm latency",
    )
    query.add_argument(
        "--batch", action="store_true",
        help="evaluate all queries as one batch (distinct cover keys are fetched once)",
    )
    query.add_argument(
        "--cache-stats", action="store_true",
        help="print plan/posting cache hit rates and index probe counters",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print the decomposition/cover plan, per-stage posting counts, the join "
             "order with its predicates and the generated kernel, without executing the join",
    )
    query.add_argument(
        "--trace", action="store_true",
        help="trace each execution and print its per-stage span tree "
             "(parse/decompose, fetch, join, filter) after the results",
    )
    query.set_defaults(func=cmd_query)

    add = subparsers.add_parser("add", help="append trees to a live index")
    add.add_argument("index", help="live-index manifest built with 'build --live'")
    add.add_argument("corpus", help="Penn-bracket file of trees to append (one per line)")
    add.set_defaults(func=cmd_add)

    delete = subparsers.add_parser("delete", help="delete trees from a live index by tid")
    delete.add_argument("index", help="live-index manifest built with 'build --live'")
    delete.add_argument("tids", nargs="+", type=int, help="tree ids to tombstone")
    delete.set_defaults(func=cmd_delete)

    compact = subparsers.add_parser(
        "compact", help="fold a live index's delta and tombstones into immutable segments"
    )
    compact.add_argument("index", help="live-index manifest built with 'build --live'")
    compact.set_defaults(func=cmd_compact)

    bench = subparsers.add_parser("bench", help="list and run the registered experiments")
    bench.add_argument(
        "action", nargs="?", choices=("list", "run"), help="list experiments, or run some/all",
    )
    bench.add_argument("names", nargs="*", help="experiment names for 'run' (default: all)")
    bench.add_argument(
        "--out", default="benchmarks/results",
        help="directory for <name>.txt and BENCH_<name>.json artefacts (run mode)",
    )
    bench.add_argument(
        "--workdir", default=None,
        help="directory for corpora/indexes built while running (default: a temp dir)",
    )
    bench.add_argument(
        "--scale", type=float, default=None,
        help="corpus-size multiplier (default: REPRO_BENCH_SCALE or 1.0)",
    )
    bench.add_argument("--seed", type=int, default=17, help="experiment-context seed")
    bench.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of human-readable output",
    )
    bench.add_argument(
        "--trace", action="store_true",
        help="trace each measured run and write TRACE_<name>.json "
             "(Chrome-trace format + per-stage totals) next to the bench artifacts",
    )
    bench.set_defaults(func=cmd_bench)

    stats = subparsers.add_parser("stats", help="print statistics of a built index")
    stats.add_argument("index", help="index file, sharded manifest or live manifest")
    stats.add_argument("--top", type=int, default=0, help="show the N longest posting lists")
    stats.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (with a per-source breakdown when sharded or live)",
    )
    stats.set_defaults(func=cmd_stats)

    serve = subparsers.add_parser("serve", help="serve an index over HTTP")
    serve.add_argument("index", help="index file, sharded manifest or live manifest")
    serve.add_argument("--host", default="127.0.0.1", help="address to bind (default: loopback)")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="port to bind (0 picks an ephemeral port; default: 8321)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="worker threads executing queries off the event loop (default: 4)",
    )
    serve.add_argument(
        "--header-timeout", type=float, default=10.0, metavar="S",
        help="seconds a connection may take to deliver a complete request head "
             "before it is reaped with 408 (default: 10)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="seconds a single request may spend executing before 504 (default: 30)",
    )
    serve.add_argument(
        "--write-timeout", type=float, default=15.0, metavar="S",
        help="seconds a response write may stall on a slow client before the "
             "connection is aborted (default: 15)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=256,
        help="open-connection cap; excess connections get an immediate 503 "
             "(default: 256)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=128,
        help="in-flight query cap; requests beyond it are shed with 503 + "
             "Retry-After instead of queueing (default: 128)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="seconds SIGTERM/SIGINT shutdown waits for in-flight requests "
             "before force-closing stragglers (default: 10)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="trace every request (adds /debug/trace and request-id tagging)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append one JSON line per request trace (and per 500 error) to PATH; "
             "implies --trace",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="N",
        help="log queries slower than N ms to the slow-query log "
             "(surfaced in /stats); implies --trace",
    )
    serve.set_defaults(func=cmd_serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="closed-loop load test of the WH workload against an index"
    )
    loadtest.add_argument("index", help="index to test (used for the ground-truth check)")
    loadtest.add_argument(
        "--url", default=None,
        help="base URL of an already-running server (default: self-serve the index "
             "on an ephemeral port)",
    )
    loadtest.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: N clients each waiting for a response; open: requests "
             "arrive on a fixed schedule regardless of responses (default: closed)",
    )
    loadtest.add_argument(
        "--concurrency", type=int, nargs="+", default=[1, 2, 4],
        help="closed-loop client counts to sweep (default: 1 2 4)",
    )
    loadtest.add_argument(
        "--rate", type=float, nargs="+", default=[200.0], metavar="QPS",
        help="open-loop arrival rates to sweep, in requests/second (default: 200)",
    )
    loadtest.add_argument(
        "--arrivals", choices=("poisson", "uniform"), default="poisson",
        help="open-loop inter-arrival distribution (default: poisson)",
    )
    loadtest.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds to drive load at each concurrency level (default: 2)",
    )
    loadtest.add_argument(
        "--out", default=".",
        help="directory for the BENCH_serve_http_throughput.json (closed) or "
             "BENCH_serve_overload.json (open) artefact (default: .)",
    )
    loadtest.set_defaults(func=cmd_loadtest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
