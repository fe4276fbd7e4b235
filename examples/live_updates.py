"""A mutable corpus served live: add -> query -> delete -> compact.

Walks the live-index lifecycle from the library API: seed an index, keep
serving while trees are added and deleted, then compact and show that the
answers never drifted from a fresh rebuild.

Run with::

    PYTHONPATH=src python examples/live_updates.py
"""

from __future__ import annotations

import os
import tempfile

from repro import Corpus, CorpusGenerator, LiveIndex, QueryService, SubtreeIndex, parse_query
from repro.exec.executor import QueryExecutor

QUERY = "NP(DT)(NN)"


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-live-")
    base = CorpusGenerator(seed=1).generate_list(300)
    extra = CorpusGenerator(seed=2).generate_list(40)

    live = LiveIndex.create(
        os.path.join(workdir, "corpus"), mss=3, coding="root-split", trees=base
    )
    service = QueryService(live)  # the same service as over a plain index file
    print(f"seeded: {live.tree_count} trees, epoch {live.epoch}")
    print(f"{QUERY!r}: {service.run(QUERY).total_matches} matches")

    # Mutate while serving: every op is fsynced to the WAL before it is
    # acknowledged; the index empties its posting cache, and cached results
    # carry the index version they were computed at, so none is served stale.
    added = [live.add_tree(tree.root) for tree in extra]
    live.delete_tree(added[0])
    live.delete_tree(5)
    print(
        f"after {len(added)} adds + 2 deletes: {live.tree_count} trees "
        f"({live.delta.tree_count} in the delta, {len(live.tombstones)} tombstones, "
        f"{live.wal.op_count} WAL ops)"
    )
    print(f"{QUERY!r}: {service.run(QUERY).total_matches} matches")

    # The answers equal a from-scratch rebuild of the surviving corpus.
    survivors = list(live.store)
    rebuilt = SubtreeIndex.build(
        survivors, mss=3, coding="root-split", path=os.path.join(workdir, "rebuilt.si")
    )
    reference = QueryExecutor(rebuilt, store=Corpus(survivors)).execute(parse_query(QUERY))
    assert service.run(QUERY).matches_per_tree == reference.matches_per_tree
    print("equivalence vs fresh rebuild: ok")
    rebuilt.close()

    # Compaction folds the delta + tombstones into immutable segments and
    # truncates the WAL; queries are undisturbed.
    stats = live.compact()
    print(
        f"compacted to epoch {stats.epoch} in {stats.seconds:.2f}s: "
        f"flushed {stats.flushed_trees} trees, purged {stats.purged_tombstones} tombstones"
    )
    assert service.run(QUERY).matches_per_tree == reference.matches_per_tree
    print(f"{QUERY!r} after compaction: {service.run(QUERY).total_matches} matches")

    service.close()


if __name__ == "__main__":
    main()
