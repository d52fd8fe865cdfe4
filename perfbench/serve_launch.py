"""Start one ``repro`` HTTP server for the ``serve-mixed`` workload.

Usage::

    python3 perfbench/serve_launch.py --store DIR --span-file PATH

The server is the program's public ``repro.api.server.create_server`` over a
store with a hot LRU of ``wl_serve.LRU_DOCS`` documents, and an in-memory
pipeline cache evicted after it holds more than ``wl_serve.MAX_CACHED``
artifacts.  It binds an ephemeral port and prints ``PORT <n>`` once it
listens.

Tracing is switched by signals while the load generator is paused:
``SIGUSR1`` installs the span wrappers and prints ``TRACE ON``; ``SIGUSR2``
removes them, writes the spans to the span file (first line: the store's
hit/miss counters over the traced window) and prints ``TRACE OFF``.
``SIGTERM``, or end of file on stdin (the benchmark closed it or died),
stops the server.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

import harness
from tracing import Tracer
from wl_serve import LRU_DOCS, MAX_CACHED


def _store_counts(store) -> dict:
    return {"hits": store.hits, "misses": store.misses, "lru_hits": store.lru_hits}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--span-file", required=True)
    args = parser.parse_args()

    harness.use_source_tree()
    from repro.api.server import create_server
    from repro.api.store import ArtifactStore

    store = ArtifactStore(args.store, lru_size=LRU_DOCS)
    server = create_server(host="127.0.0.1", port=0, store=store)
    server.service.max_cached_artifacts = MAX_CACHED
    tracer = Tracer()
    window: dict = {}

    def start_trace(signum, frame):
        window["start"] = _store_counts(store)
        tracer.install()
        print("TRACE ON", flush=True)

    def stop_trace(signum, frame):
        tracer.remove()
        end = _store_counts(store)
        delta = {key: end[key] - window["start"][key] for key in end}
        tracer.write(args.span_file, header={"store": delta})
        print("TRACE OFF", flush=True)

    def stop(signum, frame):
        raise SystemExit(0)

    def watch_parent():
        sys.stdin.read()
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch_parent, daemon=True).start()
    signal.signal(signal.SIGUSR1, start_trace)
    signal.signal(signal.SIGUSR2, stop_trace)
    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
