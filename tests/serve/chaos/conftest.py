"""Fixtures for the chaos suite: one shared index, per-test servers.

Every chaos test abuses the server differently (tiny timeouts, tiny caps,
frozen services), so servers are started per test with custom knobs via the
``start_server`` factory; the index and the query service underneath are
built once per module.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.index import SubtreeIndex
from repro.corpus.store import TreeStore, data_file_path
from repro.serve.server import ServerThread
from repro.service.service import QueryService

#: Queries every chaos test may use (all parse against the shared corpus).
QUERIES = ["NP(DT)(NN)", "VP(VBZ)", "S(NP)(VP)", "NP(DT)(JJ)(NN)"]


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, small_corpus) -> str:
    root = tmp_path_factory.mktemp("chaos")
    path = str(root / "chaos.si")
    SubtreeIndex.build(small_corpus, mss=3, coding="root-split", path=path).close()
    TreeStore.build(data_file_path(path), small_corpus).close()
    return path


@pytest.fixture(scope="module")
def service(index_path):
    service = QueryService.open(index_path)
    yield service
    service.close()


class HeldMisses(QueryService):
    """A real QueryService whose joins -- of a ``run`` or of a batch's
    queries -- wait for a gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.held = 0

    def _execute_prepared(self, prepared, postings, started):
        if not self.gate.is_set():
            self.held += 1  # joins the gate has stopped, not warm-up runs
        assert self.gate.wait(30.0), "the test never opened the gate"
        return super()._execute_prepared(prepared, postings, started)


@pytest.fixture()
def held_service(index_path):
    """A :class:`HeldMisses` over the shared index, its gate opened at teardown."""
    service = HeldMisses.open(index_path)
    yield service
    service.gate.set()  # pool threads cannot be cancelled: let them finish
    service.close()


@pytest.fixture()
def start_server(service):
    """``start_server(**knobs)`` -> a running ServerThread, stopped on teardown.

    Pass ``service_override=`` to serve a wrapped (gated / slowed) service.
    """
    threads = []

    def _start(service_override=None, **knobs):
        thread = ServerThread(service_override or service, **knobs).start()
        threads.append(thread)
        return thread

    yield _start
    for thread in threads:
        thread.stop()
