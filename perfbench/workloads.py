"""The four workloads.  Why each exists is in ``perfbench/README.md``.

A workload has two sides.  :meth:`Workload.make_job` runs once in the
benchmark process: it makes the inputs and asks the oracle for the answer
to every operation the run will issue.  Everything else runs in a *leg*
(:mod:`perfbench.leg`), a fresh process that is handed the job, sets the
flavor up once, and measures: each class supplies what differs -- which
flavor, what one pass does untraced and traced, how bytes and memory are
counted.  A traced pass calls the same public functions with the
benchmark's own spans around them; for the two executor workloads that
means running the three pipeline stages the executor runs, one by one.

A pass reports every operation to a :class:`~perfbench.measure.Recorder`,
which cuts the work into host-normalised slices.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Set

from repro import LiveIndex, LiveQueryService, QueryExecutor, parse_query, to_penn
from repro.exec import decompose_query, default_strategy, join_postings
from repro.storage import BPlusTree

from perfbench import ROOT, hostclock
from perfbench.deploy import (
    MSS,
    arrival_order,
    base_trees,
    fb_point_texts,
    timed_stand_up,
    stream_trees,
    wh_texts,
)
from perfbench.hostclock import RemoteClock
from perfbench.measure import Plan, Recorder, group_seconds, peak_rss_mb
from perfbench.oracle import Oracle, Tally, answer_is_correct
from perfbench.spans import QID, SpanLog
from perfbench.spec import PER_LAYER

_now = time.perf_counter
_UNTRACED = contextlib.nullcontext()


class Workload:
    """State and hooks shared by the four workloads."""

    name = ""
    flavor = ""
    base_plan: Plan
    #: How many times a pass goes through the job's queries.
    CYCLES = 1
    #: Spans whose self time is the benchmark's own loop, not a program stage.
    glue_spans: frozenset = frozenset()

    # -- the benchmark process -------------------------------------------
    @classmethod
    def make_job(cls, plan: Plan, trace: bool) -> Dict[str, object]:
        """Inputs and oracle answers for one leg (every leg gets the same):
        at least ``queries``, ``live_nodes``, ``base_nodes``, ``oracle_total``."""
        raise NotImplementedError

    # -- a leg -------------------------------------------------------------
    def __init__(self, job: Dict[str, object], leg: int, directory: str, clock: RemoteClock):
        self.job = job
        self.plan: Plan = job["plan"]
        self.trace: bool = job["trace"]
        self.queries: List[str] = list(job["queries"]) * self.CYCLES
        self.order = arrival_order(job["seed"], leg)
        #: The first pass's arrival order: shows what the seed drew.
        self.first_order: List[str] = []
        self.directory = directory
        self.clock = clock
        self.tally = Tally()
        self.standup = None
        self.next_qid = 0

    def set_up(self) -> Dict[str, object]:
        """One timed set-up; returns its summary (see ``timed_stand_up``)."""
        self.standup, summary = timed_stand_up(
            self.flavor, self.plan.sentences, self.directory, self.clock
        )
        return summary

    def warm_up(self) -> None:
        """Passes whose timings are thrown away (their answers are still checked)."""
        discard = Recorder(self.clock)
        for _ in range(self.plan.warmup_passes):
            self.run_pass(discard)

    def shuffled_queries(self) -> List[str]:
        """This pass's arrival order."""
        self.order.shuffle(self.queries)
        if not self.first_order:
            self.first_order = list(self.queries)
        return self.queries

    def run_pass(self, recorder: Recorder) -> None:
        """One pass; with ``recorder.log`` set, the traced variant of it."""
        raise NotImplementedError

    def finish(self) -> Dict[str, object]:
        """End-of-leg accounting: ``index_bytes`` and ``peak_rss_mb``."""
        raise NotImplementedError

    def fill_layers(self, layers: Dict[str, float], log: SpanLog, traced: Recorder) -> None:
        """Add this workload's own per-layer values to *layers*."""
        raise NotImplementedError

    def close(self) -> None:
        if self.standup is not None:
            self.standup.close()

    def qid(self) -> int:
        self.next_qid += 1
        return self.next_qid

    def layer_metrics(
        self, setup: Dict[str, object], untraced: Recorder, traced: Recorder, log: SpanLog
    ) -> Dict[str, float]:
        """Every per-layer metric by name; a layer this workload does not
        exercise, or cannot see through public calls, reads 0."""
        layers = dict.fromkeys(PER_LAYER, 0.0)
        stages = setup["stage_s"]
        layers.update({
            "core.build_s": stages["build"],
            "core.build_nodes_per_s": self.job["base_nodes"] / stages["build"],
            "core.keys": setup["keys"],
            "core.postings": setup["postings"],
            "corpus.generate_s": stages["generate"],
            "corpus.store_write_s": stages["store_write"],
        })
        self.fill_layers(layers, log, traced)
        stage_seconds = sum(
            seconds
            for name, (_, seconds) in log.self_times().items()
            if name not in self.glue_spans
        )
        layers["trace.stage_sum_over_e2e"] = (
            stage_seconds / len(traced.samples) / statistics.fmean(untraced.samples)
        )
        layers["trace.overhead_pct"] = 100.0 * (
            group_seconds(traced.walls) / group_seconds(untraced.walls) - 1.0
        )
        return layers


def _static_job(queries: List[str], plan: Plan) -> Dict[str, object]:
    """The job of a workload whose corpus never changes."""
    oracle = Oracle(queries, base_trees(plan.sentences))
    nodes = sum(oracle.nodes.values())
    return {
        "queries": queries,
        "expected": {text: oracle.expected(text) for text in queries},
        "live_nodes": nodes,
        "base_nodes": nodes,
        "oracle_total": oracle.total(),
    }


# ----------------------------------------------------------------------
# wh_exec_rs / fb_point_rs: query text -> parse_query -> QueryExecutor.execute
# ----------------------------------------------------------------------
class ExecutorWorkload(Workload):
    flavor = "executor"
    glue_spans = frozenset({"query"})

    def __init__(self, *args: object):
        super().__init__(*args)
        self.counts = dict.fromkeys(("keys", "raw_bytes", "postings", "matches"), 0)
        self.handle: Optional[BPlusTree] = None

    def run_pass(self, recorder: Recorder) -> None:
        run = self._execute if recorder.log is None else self._execute_staged
        expected = self.job["expected"]
        for text in self.shuffled_queries():
            started = _now()
            try:
                result = run(text, recorder.log)
            except Exception:
                self.tally.record(False, text)
                continue
            elapsed = _now() - started
            if self.tally.record(
                answer_is_correct(expected[text], result.total_matches, result.matches_per_tree),
                text,
            ):
                recorder.sample(elapsed)

    def _execute(self, text: str, log: None) -> object:
        executor: QueryExecutor = self.standup.service
        return executor.execute(parse_query(text))

    def _execute_staged(self, text: str, log: SpanLog) -> object:
        """The executor's pipeline stage by stage, over a second handle on
        the index file so the B+Tree descent can be told from the decode.

        Stage boundaries are bare clock readings and the spans are written
        down once the query is done: at 0.2 ms a query, five context
        managers would be a tenth of what they measure.
        """
        if self.handle is None:
            self.handle = BPlusTree(self.standup.index_path)
        handle, coding = self.handle, self.standup.index.coding
        counts = self.counts
        started = _now()
        query = parse_query(text)
        parsed = _now()
        cover = decompose_query(query, MSS, default_strategy(coding))
        keys = [subtree.key_bytes() for subtree in cover.subtrees]
        decomposed = _now()
        postings = []
        fetches = []
        for key in keys:
            before = _now()
            raw = handle.get(key)
            fetched = _now()
            decoded = coding.decode_postings(raw) if raw is not None else []
            fetches.append((before, fetched, _now()))
            counts["raw_bytes"] += len(raw or b"")
            counts["postings"] += len(decoded)
            postings.append(decoded)
        joining = _now()
        result = join_postings(query, cover, postings, coding)
        done = _now()
        qid = self.qid()
        root = log.add("query", started, done, -1, qid)
        log.add("query.parse", started, parsed, root, qid)
        log.add("query.decompose", parsed, decomposed, root, qid)
        for before, fetched, after in fetches:
            log.add("storage.get", before, fetched, root, qid)
            log.add("coding.decode", fetched, after, root, qid)
        log.add("exec.join", joining, done, root, qid)
        counts["keys"] += len(keys)
        counts["matches"] += result.total_matches
        return result

    def finish(self) -> Dict[str, object]:
        return {"index_bytes": self.standup.index.size_bytes(), "peak_rss_mb": peak_rss_mb()}

    def fill_layers(self, layers: Dict[str, float], log: SpanLog, traced: Recorder) -> None:
        queries = len(traced.samples)
        counts = self.counts
        totals = log.self_times()
        stages = {
            f"{span}_ms": totals[span][1] / queries * 1e3
            for span in ("query.parse", "query.decompose", "storage.get", "coding.decode", "exec.join")
        }
        layers.update(stages)
        layers.update({
            "query.cover_keys_per_query": counts["keys"] / queries,
            "storage.gets_per_query": counts["keys"] / queries,
            "storage.page_reads_per_get": self.handle.pager.read_count / counts["keys"],
            "storage.tree_height": self.handle.height,
            "coding.postings_per_query": counts["postings"] / queries,
            "coding.bytes_per_posting": counts["raw_bytes"] / max(1, counts["postings"]),
            "exec.join_share": stages["exec.join_ms"] / sum(stages.values()),
            "exec.matches_per_posting": counts["matches"] / max(1, counts["postings"]),
        })

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
        super().close()


class WhExecRs(ExecutorWorkload):
    name = "wh_exec_rs"
    base_plan = Plan(sentences=1200, legs=3, warmup_passes=1, groups=9, passes_per_group=1)

    @classmethod
    def make_job(cls, plan: Plan, trace: bool) -> Dict[str, object]:
        return _static_job(wh_texts(), plan)


class FbPointRs(ExecutorWorkload):
    name = "fb_point_rs"
    base_plan = Plan(sentences=1200, legs=4, warmup_passes=5, groups=6, passes_per_group=48)

    @classmethod
    def make_job(cls, plan: Plan, trace: bool) -> Dict[str, object]:
        return _static_job(fb_point_texts(plan.sentences), plan)


# ----------------------------------------------------------------------
# http_hot_rs: one keep-alive connection against ServerThread in a child
# ----------------------------------------------------------------------
class HttpHotRs(Workload):
    """The leg is the client; a child of its own is set up as the server."""

    name = "http_hot_rs"
    #: A pass is ``CYCLES`` rounds of the WH templates: 420 requests.
    CYCLES = 10
    base_plan = Plan(sentences=1200, legs=4, warmup_passes=1, groups=8, passes_per_group=1)

    @classmethod
    def make_job(cls, plan: Plan, trace: bool) -> Dict[str, object]:
        job = _static_job(wh_texts(), plan)
        # The wire form of an answer: JSON object keys are strings.
        job["expected"] = {
            text: ({str(tid): count for tid, count in row.items()}, sum(row.values()))
            for text, row in job["expected"].items()
        }
        return job

    def __init__(self, *args: object):
        super().__init__(*args)
        self.templates: List[str] = list(self.job["queries"])
        self.bodies = {
            text: json.dumps({"query": text}).encode("utf-8") for text in self.templates
        }
        self.child: Optional[subprocess.Popen] = None
        self.connection: Optional[http.client.HTTPConnection] = None
        self.sent = 0
        self.traced_requests: List[tuple] = []  # (request number, span row)
        self.log: Optional[SpanLog] = None
        self.response_bytes = 0
        self.final: Dict[str, object] = {}

    def set_up(self) -> Dict[str, object]:
        """The server child sets itself up under its own stopwatch; its
        tick requests are passed on to the benchmark process."""
        self.child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.httpchild",
             "--sentences", str(self.plan.sentences), "--directory", self.directory,
             "--trace", str(int(self.trace))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = hostclock.serve_ticks(self.child.stdout, self.child.stdin, self.clock.tick)
        if not line:
            raise RuntimeError(f"server child exited with code {self.child.wait()} before serving")
        serving = json.loads(line)
        self.connection = http.client.HTTPConnection("127.0.0.1", serving["port"], timeout=30)
        self.connection.connect()
        return serving["setup"]

    def warm_up(self) -> None:
        """One cycle of the templates, every request a result-cache miss, then hits."""
        priming = Recorder(self.clock)
        for text in self.templates:
            started = _now()
            if self._verify(text, *self._request(text)):
                priming.sample(_now() - started)
        priming.cut()
        self.priming_factors = [
            normal / raw for normal, raw in zip(priming.samples, priming.raw_samples)
        ]
        super().warm_up()

    # -- requests --------------------------------------------------------
    def _request(self, text: str) -> tuple:
        """POST one query; returns (status, body bytes)."""
        self.sent += 1
        connection = self.connection
        connection.request(
            "POST", "/query", body=self.bodies[text],
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()

    def _verify(self, text: str, status: int, body: bytes) -> bool:
        ok = False
        if status == 200:
            result = json.loads(body)["result"]
            rows, total = self.job["expected"][text]
            ok = result["matches_per_tree"] == rows and result["total_matches"] == total
        return self.tally.record(ok, text)

    def run_pass(self, recorder: Recorder) -> None:
        log = self.log = recorder.log
        for text in self.shuffled_queries():
            started = _now()
            try:
                if log is None:
                    status, body = self._request(text)
                else:
                    with log.span("serve.rtt", self.qid()):
                        status, body = self._request(text)
                    self.traced_requests.append((self.sent, len(log.rows) - 1))
                    self.response_bytes += len(body)
            except (OSError, http.client.HTTPException):
                self.tally.record(False, text)
                continue
            elapsed = _now() - started
            if self._verify(text, status, body):
                recorder.sample(elapsed)

    def finish(self) -> Dict[str, object]:
        """Ask the server to stop; it answers with its accounting."""
        self.connection.close()
        self.connection = None
        final, _ = self.child.communicate("stop\n", timeout=60)
        if self.child.returncode != 0:
            raise RuntimeError(f"server child exited with code {self.child.returncode}")
        self.child = None
        self.final = final = json.loads(final.strip().splitlines()[-1])
        if final["tracing_enabled"]:
            raise RuntimeError("repro.obs tracing was enabled in the server child")
        # The child timed every QueryService.run, in request order, on the
        # same monotonic clock: hang each under the round trip that caused it.
        runs = final["service_runs"]
        for number, row in self.traced_requests:
            start, end = runs[number - 1]
            self.log.add("service.run", start, end, row, self.log.rows[row][QID])
        return {"index_bytes": final["index_bytes"], "peak_rss_mb": final["peak_rss_mb"]}

    def fill_layers(self, layers: Dict[str, float], log: SpanLog, traced: Recorder) -> None:
        round_trips = log.durations("serve.rtt")
        rtt_ms = statistics.fmean(round_trips) * 1e3
        hit_ms = statistics.fmean(log.durations("service.run")) * 1e3
        priming = self.final["service_runs"][: len(self.templates)]
        caches = self.final["stats"]["caches"]
        layers.update({
            "service.hit_ms": hit_ms,
            "service.miss_ms": statistics.fmean(
                (end - start) * factor * 1e3
                for (start, end), factor in zip(priming, self.priming_factors)
            ),
            "service.result_hit_rate": caches["results"]["hit_rate"],
            "service.postings_hit_rate": caches["postings"]["hit_rate"],
            "serve.rtt_ms": rtt_ms,
            "serve.overhead_ms": rtt_ms - hit_ms,
            "serve.response_bytes": self.response_bytes / len(round_trips),
        })

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.communicate()


# ----------------------------------------------------------------------
# live_rw_rs: adds, deletes, queries and compaction interleaved on one thread
# ----------------------------------------------------------------------
class LiveRwRs(Workload):
    name = "live_rw_rs"
    flavor = "live"
    glue_spans = frozenset({"live.round"})
    ADDS = 48
    DELETES = 24
    COMPACT_EVERY = 5
    _DELETE_SEED = 20120803
    #: A pass is one round; a group is one compaction cycle of five rounds.
    base_plan = Plan(sentences=1200, legs=3, warmup_passes=1, groups=2, passes_per_group=5)

    @classmethod
    def make_job(cls, plan: Plan, trace: bool) -> Dict[str, object]:
        """The whole schedule is fixed here: what each round adds and
        deletes, and the oracle's answer to every query once it has."""
        queries = wh_texts()
        rounds = plan.groups * plan.passes_per_group * (2 if trace else 1)
        base = base_trees(plan.sentences)
        stream = stream_trees(rounds * cls.ADDS, start_tid=plan.sentences)
        oracle = Oracle(queries, base + stream)
        picker = random.Random(cls._DELETE_SEED)
        live: Set[int] = {tree.tid for tree in base}
        base_answers = {text: oracle.expected(text, live) for text in queries}
        schedule = []
        previous: List[int] = []
        for number in range(rounds):
            added = stream[number * cls.ADDS : (number + 1) * cls.ADDS]
            deleted = sorted(picker.sample(previous, cls.DELETES)) if previous else []
            previous = [tree.tid for tree in added]
            live.update(previous)
            live.difference_update(deleted)
            answers = {text: oracle.expected(text, live) for text in queries}
            schedule.append((
                [(tree.tid, to_penn(tree.root)) for tree in added], deleted, answers,
            ))
        return {
            "queries": queries,
            "base_answers": base_answers,
            "schedule": schedule,
            "live_nodes": sum(oracle.nodes[tid] for tid in live),
            "base_nodes": sum(oracle.nodes[tree.tid] for tree in base),
            "oracle_total": oracle.total(live),
        }

    def __init__(self, *args: object):
        super().__init__(*args)
        self.round = 0
        self.adds = 0
        self.wal_bytes = 0
        self.delta_trees: List[int] = []

    def warm_up(self) -> None:
        """Query-only passes over the base corpus: plans and segment caches fill."""
        service: LiveQueryService = self.standup.service
        answers = self.job["base_answers"]
        for _ in range(self.plan.warmup_passes):
            for text in self.shuffled_queries():
                result = service.run(text)
                self.tally.record(
                    answer_is_correct(answers[text], result.total_matches, result.matches_per_tree),
                    text,
                )

    def _mutate(self, what: str, call: Callable, *args: object) -> object:
        """One mutation; an exception is a failed operation."""
        try:
            value = call(*args)
        except Exception as error:
            self.tally.record(False, f"{what}: {error}")
            return None
        self.tally.record(True, what)
        return value

    def run_pass(self, recorder: Recorder) -> None:
        index: LiveIndex = self.standup.index
        service: LiveQueryService = self.standup.service
        added, deleted, answers = self.job["schedule"][self.round]
        self.round += 1
        log = recorder.log
        span = log.span if log is not None else (lambda name, qid: _UNTRACED)
        with span("live.round", self.round):
            wal_before = index.wal.size_bytes()
            for tid, penn in added:
                with span("live.add", self.qid()):
                    assigned = self._mutate("add_tree", index.add_tree, penn)
                if assigned is not None and assigned != tid:
                    self.tally.record(False, f"add_tree assigned tid {assigned}, expected {tid}")
                recorder.mark()
            self.wal_bytes += index.wal.size_bytes() - wal_before
            self.adds += len(added)
            for tid in self.order.sample(deleted, len(deleted)):
                with span("live.delete", self.qid()):
                    self._mutate("delete_tree", index.delete_tree, tid)
                recorder.mark()
            self.delta_trees.append(index.delta.tree_count)
            for text in self.shuffled_queries():
                started = _now()
                try:
                    with span("live.query", self.qid()):
                        result = service.run(text)
                except Exception:
                    self.tally.record(False, text)
                    continue
                elapsed = _now() - started
                if self.tally.record(
                    answer_is_correct(
                        answers[text], result.total_matches, result.matches_per_tree
                    ),
                    text,
                ):
                    recorder.sample(elapsed)
            if self.round % self.COMPACT_EVERY == 0:
                recorder.cut()  # a compaction gets a slice, and ticks, of its own
                with span("live.compact", self.qid()):
                    self._mutate("compact", index.compact)
                recorder.mark()

    def finish(self) -> Dict[str, object]:
        index: LiveIndex = self.standup.index
        return {
            "index_bytes": index.size_bytes() + index.wal.size_bytes(),
            "peak_rss_mb": peak_rss_mb(),
        }

    def fill_layers(self, layers: Dict[str, float], log: SpanLog, traced: Recorder) -> None:
        totals = log.self_times()
        mean = {name: seconds / count for name, (count, seconds) in totals.items()}
        write_seconds = sum(
            totals.get(name, (0, 0.0))[1] for name in ("live.add", "live.delete", "live.compact")
        )
        caches = self.standup.service.stats().as_dict()["caches"]
        layers.update({
            "live.add_ms": mean["live.add"] * 1e3,
            "live.delete_ms": mean["live.delete"] * 1e3,
            "live.compact_s": mean.get("live.compact", 0.0),
            "live.write_share": write_seconds / (write_seconds + totals["live.query"][1]),
            "live.wal_bytes_per_add": self.wal_bytes / self.adds,
            "live.segments_end": self.standup.index.segment_count,
            "live.delta_trees_at_query": statistics.fmean(self.delta_trees),
            "service.miss_ms": mean["live.query"] * 1e3,
            "service.result_hit_rate": caches["results"]["hit_rate"],
            "service.postings_hit_rate": caches["postings"]["hit_rate"],
        })


BY_NAME = {cls.name: cls for cls in (WhExecRs, FbPointRs, HttpHotRs, LiveRwRs)}
