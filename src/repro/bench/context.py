"""The experiment laboratory: cached corpora, data files and indexes.

Most experiments need the same ingredients -- a generated corpus of N
sentences, its on-disk data file and one or more subtree indexes over it.
Building them repeatedly would dominate benchmark time, so the context caches
every artefact inside a working directory, keyed by its parameters.  All
artefacts are deterministic functions of ``(seed, size)`` so cached and fresh
runs measure the same thing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.baselines.atreegrep import ATreeGrepIndex
from repro.baselines.frequency_based import FrequencyBasedIndex
from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus, TreeStore
from repro.exec.executor import QueryExecutor
from repro.shard.builder import build_sharded
from repro.workloads.fb import FBQuerySet, generate_fb_queries
from repro.workloads.wh import WHQuery, generate_wh_queries


@dataclass
class ExperimentContext:
    """Builds and caches the artefacts shared by the experiment runners."""

    workdir: str
    seed: int = 17
    _corpora: Dict[int, Corpus] = field(default_factory=dict)
    _indexes: Dict[Tuple[int, str, int], SubtreeIndex] = field(default_factory=dict)
    _sharded: Dict[Tuple[int, str, int, int, int, str], SegmentSet] = field(default_factory=dict)
    _fb_sets: Dict[Tuple[int, int], FBQuerySet] = field(default_factory=dict)
    _stores: Dict[int, TreeStore] = field(default_factory=dict)

    def __post_init__(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    # ------------------------------------------------------------------
    # Corpora and workloads
    # ------------------------------------------------------------------
    def corpus(self, sentence_count: int) -> Corpus:
        """The deterministic corpus of *sentence_count* sentences."""
        if sentence_count not in self._corpora:
            generator = CorpusGenerator(seed=self.seed)
            self._corpora[sentence_count] = Corpus(generator.generate(sentence_count))
        return self._corpora[sentence_count]

    def held_out_trees(self, count: int = 50) -> List:
        """Trees generated from a different seed, never part of any index."""
        return CorpusGenerator(seed=self.seed + 7919).generate_list(count)

    def wh_queries(self) -> List[WHQuery]:
        """The 48 WH queries."""
        return generate_wh_queries()

    def fb_queries(self, corpus_size: int, max_size: int = 10) -> FBQuerySet:
        """The FB query set relative to the corpus of *corpus_size* sentences."""
        key = (corpus_size, max_size)
        if key not in self._fb_sets:
            self._fb_sets[key] = generate_fb_queries(
                indexed_trees=list(self.corpus(corpus_size)),
                held_out_trees=self.held_out_trees(),
                max_size=max_size,
                seed=self.seed,
            )
        return self._fb_sets[key]

    # ------------------------------------------------------------------
    # Indexes and executors
    # ------------------------------------------------------------------
    def index_path(self, sentence_count: int, coding: str, mss: int) -> str:
        """Deterministic file path of one index configuration."""
        return os.path.join(self.workdir, f"si-{sentence_count}-{coding}-{mss}.bpt")

    def subtree_index(self, sentence_count: int, coding: str, mss: int) -> SubtreeIndex:
        """Build (or reuse) the subtree index for the given configuration."""
        key = (sentence_count, coding, mss)
        if key not in self._indexes:
            path = self.index_path(sentence_count, coding, mss)
            if os.path.exists(path):
                os.remove(path)
            corpus = self.corpus(sentence_count)
            self._indexes[key] = SubtreeIndex.build(corpus, mss=mss, coding=coding, path=path)
        return self._indexes[key]

    def sharded_index(
        self,
        sentence_count: int,
        coding: str,
        mss: int,
        shards: int,
        workers: int = 1,
    ) -> SegmentSet:
        """Build (or reuse) a sharded index for the given configuration.

        Always built fresh on first use, so ``manifest.build_seconds``
        of the returned index is a valid build-time measurement for that
        (shards, workers) configuration.
        """
        key = (sentence_count, coding, mss, shards, workers)
        if key not in self._sharded:
            path = os.path.join(
                self.workdir,
                f"shard-{sentence_count}-{coding}-{mss}-n{shards}-w{workers}.si",
            )
            self._sharded[key] = SegmentSet.open(build_sharded(
                self.corpus(sentence_count),
                mss=mss,
                coding=coding,
                path=path,
                shards=shards,
                workers=workers,
            ))
        return self._sharded[key]

    def executor(self, sentence_count: int, coding: str, mss: int) -> QueryExecutor:
        """An executor over the cached index.

        The filtering phase (filter-based coding) reads candidate trees from
        the on-disk data file, as in the paper's setup, rather than from the
        in-memory corpus.
        """
        index = self.subtree_index(sentence_count, coding, mss)
        return QueryExecutor(index, store=self.tree_store(sentence_count))

    def atreegrep(self, sentence_count: int) -> ATreeGrepIndex:
        """An ATreeGrep-style index; candidate validation reads the data file."""
        corpus = self.corpus(sentence_count)
        return ATreeGrepIndex.build(corpus, store=self.tree_store(sentence_count))

    def frequency_based(self, sentence_count: int, cutoff: float, mss: int = 3) -> FrequencyBasedIndex:
        """A frequency-based (TreePi-style) index; validation reads the data file."""
        corpus = self.corpus(sentence_count)
        return FrequencyBasedIndex.build(
            corpus, store=self.tree_store(sentence_count), mss=mss, frequency_cutoff=cutoff
        )

    def tree_store(self, sentence_count: int) -> TreeStore:
        """The on-disk data file of the corpus (built on first use, then cached)."""
        if sentence_count not in self._stores:
            path = os.path.join(self.workdir, f"data-{sentence_count}.bin")
            if os.path.exists(path):
                self._stores[sentence_count] = TreeStore(path)
            else:
                self._stores[sentence_count] = TreeStore.build(path, self.corpus(sentence_count))
        return self._stores[sentence_count]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every cached index."""
        for index in self._indexes.values():
            index.close()
        for sharded in self._sharded.values():
            sharded.close()
        for store in self._stores.values():
            store.close()
        self._indexes.clear()
        self._sharded.clear()
        self._stores.clear()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
