"""The server side of ``http_hot_rs``: set up, serve until told to stop.

Run as ``python -m perfbench.httpchild --sentences N --directory DIR --trace T``.
It does one timed set-up of the ``server`` flavor (corpus, data file,
index, ``QueryService.open`` with default caches, ``ServerThread``) and
talks to the leg over its pipes: tick requests while it sets up, one JSON
line with the port and the set-up's timings once it serves, one with its
accounting after a line arrives on stdin (or stdin closes).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import List, Tuple

from repro import obs

from perfbench.deploy import timed_stand_up
from perfbench.hostclock import RemoteClock
from perfbench.measure import peak_rss_mb


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.httpchild")
    parser.add_argument("--sentences", type=int, required=True)
    parser.add_argument("--directory", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    standup, setup = timed_stand_up(
        "server", args.sentences, args.directory, RemoteClock(sys.stdout, sys.stdin)
    )
    try:
        service = standup.service
        runs: List[Tuple[float, float]] = []
        if args.trace:
            # The benchmark's span around the public QueryService.run, taken
            # where the call happens: on the server's executor thread.
            inner = service.run

            def timed_run(query: object) -> object:
                started = time.perf_counter()
                try:
                    return inner(query)
                finally:
                    runs.append((started, time.perf_counter()))

            service.run = timed_run
        gc.collect()
        print(json.dumps({"port": standup.server.port, "setup": setup}), flush=True)
        sys.stdin.readline()
        final = {
            "index_bytes": standup.index.size_bytes(),
            "stats": service.stats().as_dict(),
            "service_runs": runs,
            "tracing_enabled": obs.enabled(),
            "peak_rss_mb": peak_rss_mb(),
        }
    finally:
        standup.close()
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
