"""The inputs, and one timed set-up per serving flavor.

**What the seed draws.**  The corpus, the live stream and the query pools
are fixed data sets, as the paper's treebank and query sets are: generated
once from the constants below, the same on every run.  ``--seed`` draws
the *traffic* -- the order in which the queries of every pass (and the
deletes of every live round) arrive, a fresh order per pass and per leg.
A seed that drew the corpus moved ``index_bytes_per_node`` by 1.5% and the
time metrics by as much again, all of it counted as noise by a driver that
varies the seed between runs; with the data fixed, every count and byte
total is exact on every seed and a time compares like with like.

A set-up is everything a user waits for before the first query: generate
the corpus, write the data file, build (or create) the index, open the
executor / service / server.  The program receives only generated inputs.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    CorpusGenerator,
    LiveIndex,
    LiveQueryService,
    ParseTree,
    QueryExecutor,
    QueryService,
    SubtreeIndex,
    TreeStore,
)
from repro.corpus import data_file_path
from repro.query.model import has_duplicate_siblings
from repro.serve import ServerThread
from repro.workloads import generate_fb_queries, generate_wh_queries

from perfbench.hostclock import RemoteClock
from perfbench.measure import SetupStopwatch

#: The paper's proposed configuration (Section 6): root-split coding, mss 3.
MSS = 3
CODING = "root-split"

_CORPUS_SEED = 20120801
_STREAM_SEED = 20120802
#: FB queries are cut from held-out corpora; label frequency classes come
#: from a reference corpus of the same grammar and size.
_FB_REFERENCE_SEED = 2_000_003
_FB_POOL_SEEDS = (2_000_004, 2_000_005)
_FB_POOL_SENTENCES = 200
#: Classes built only from low- and medium-frequency labels.  A class that
#: admits a high-frequency label admits the odd 4 000-posting join, which
#: would make this a second join workload.
_FB_POINT_CLASSES = ("L", "M", "ML")


def base_trees(sentences: int) -> List[ParseTree]:
    """The indexed corpus: tids ``0..sentences-1``."""
    return CorpusGenerator(seed=_CORPUS_SEED).generate_list(sentences)


def stream_trees(count: int, start_tid: int) -> List[ParseTree]:
    """Held-out trees the live workload adds; tids as ``add_tree`` will assign them."""
    return CorpusGenerator(seed=_STREAM_SEED).generate_list(count, start_tid=start_tid)


def arrival_order(seed: int, leg: int) -> random.Random:
    """The generator a leg shuffles its traffic with."""
    return random.Random(f"perfbench/{seed}/{leg}")


def wh_texts() -> List[str]:
    """The WH templates as query text, less the six with twin sibling subtrees.

    Decomposition-based evaluation does not bind twin siblings to distinct
    nodes, which is why the program's own FB generator skips such queries;
    the oracle caught one WH template, ``S(NP(DT)(NN)(NN))(VP(VBD)(NP))``,
    over-counting on every corpus.  A workload may hold no failing operation,
    so the rule the program states is applied to the whole set: 42 remain.
    """
    return [
        query.text for query in generate_wh_queries() if not has_duplicate_siblings(query.query)
    ]


def fb_point_texts(sentences: int) -> List[str]:
    """FB queries made of rare labels only: one key, a handful of postings."""
    reference = CorpusGenerator(seed=_FB_REFERENCE_SEED).generate_list(sentences)
    texts: List[str] = []
    for pool_seed in _FB_POOL_SEEDS:
        held_out = CorpusGenerator(seed=pool_seed).generate_list(_FB_POOL_SENTENCES)
        queries = generate_fb_queries(
            reference, held_out, seed=pool_seed, classes=_FB_POINT_CLASSES
        )
        texts.extend(query.text for query in queries)
    return texts


#: The stages of a set-up, in order; ``stand_up`` ends each with ``end_stage()``.
STAGES = ("generate", "store_write", "build", "open")


@dataclass
class StandUp:
    """One finished set-up: what was opened."""

    index: object  # SubtreeIndex | LiveIndex
    service: object  # QueryExecutor | QueryService | LiveQueryService
    server: Optional[ServerThread]
    index_path: str
    keys: int
    postings: int
    _closers: List[Callable[[], None]]

    def close(self) -> None:
        for close in self._closers:
            close()
        self._closers.clear()


def stand_up(
    flavor: str, sentences: int, directory: str, end_stage: Callable[[], None]
) -> StandUp:
    """Set one flavor up in *directory*: ``executor``, ``server`` or ``live``.

    ``server`` is a :class:`QueryService` (default caches) opened on the
    files just built, behind a running :class:`ServerThread`
    (``StandUp.server``).  *end_stage* is called as each of :data:`STAGES`
    ends; the caller does the timing.
    """
    server = None
    trees = base_trees(sentences)
    end_stage()
    if flavor == "live":
        end_stage()  # LiveIndex.create writes the segment's data file itself
        index = LiveIndex.create(os.path.join(directory, "corpus"), MSS, CODING, trees=trees)
        index_path = index.manifest_path
        end_stage()
        service = LiveQueryService(index)
        closers = [service.close, index.close]
    else:
        index_path = os.path.join(directory, "corpus.si")
        store = TreeStore.build(data_file_path(index_path), trees)
        end_stage()
        index = SubtreeIndex.build(trees, mss=MSS, coding=CODING, path=index_path)
        end_stage()
        if flavor == "server":
            index.close()
            store.close()
            service = QueryService.open(index_path)
            index = service.index
            server = ServerThread(service).start()
            closers = [server.stop, service.close]
        else:
            service = QueryExecutor(index, store=store)
            closers = [index.close, store.close]
    end_stage()
    return StandUp(
        index=index,
        service=service,
        server=server,
        index_path=index_path,
        keys=index.key_count,
        postings=index.posting_count,
        _closers=closers,
    )


def timed_stand_up(
    flavor: str, sentences: int, directory: str, clock: RemoteClock
) -> Tuple[StandUp, Dict[str, object]]:
    """One set-up under a :class:`SetupStopwatch`; returns the stand-up and
    ``{"total_s", "raw_total_s", "stage_s", "keys", "postings"}``."""
    gc.collect()
    with SetupStopwatch(clock) as stopwatch:
        standup = stand_up(flavor, sentences, directory, stopwatch.end_stage)
    recorder = stopwatch.recorder
    summary = {
        "total_s": sum(recorder.walls),
        "raw_total_s": sum(recorder.raw_walls),
        "stage_s": dict(zip(STAGES, recorder.walls)),
        "keys": standup.keys,
        "postings": standup.postings,
    }
    return standup, summary
