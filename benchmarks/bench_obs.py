"""Serving overhead of the observability subsystem (obs off vs. on).

``repro.obs`` promises the :mod:`repro.api.faults` deal: when off, every
layer holds ``None`` and pays one ``is None`` check per operation; when on,
counters are dict increments, histograms a bucket scan, and spans one JSONL
append per request.  This bench prices that promise on the steady-state
serving workload — warm ``/synthesize`` requests against one in-process
server — measured twice under identical concurrent load:

* **off** — ``create_server(...)`` with no obs (the default);
* **on**  — the full bundle: metrics + request spans + a JSONL trace sink
  and snapshot directory on disk.

Both req/s numbers and their ratio land in the perf record
(``results.obs``); the acceptance budget is ≤5% cost, asserted here with
slack for noisy shared runners (the recorded ratio carries the real
number).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from contextlib import contextmanager

from repro.api import Pipeline, SynthesisOptions
from repro.api.server import create_server
from repro.benchmarks.classic import classic_names
from repro.obs import Obs
from repro.obs.expose import parse_prometheus
from repro.obs.trace import list_traces

OPTIONS = SynthesisOptions(assume_csc=True)


def _suite() -> list[str]:
    names = classic_names(synthesizable_only=True)
    names += ["glatch_3", "glatch_5", "muller_pipeline_2", "philosophers_3"]
    return names


def _post(port: int, path: str, payload: dict, timeout: float = 60.0) -> dict:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


@contextmanager
def _served(store, obs=None):
    server = create_server(port=0, store=store, obs=obs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _hammer(port: int, names: list[str], threads: int, duration: float) -> float:
    """Warm ``/synthesize`` load; returns achieved requests per second."""
    counts = [0] * threads
    errors: list[str] = []
    barrier = threading.Barrier(threads + 1)

    def worker(slot: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + duration
        step = 0
        while time.perf_counter() < deadline:
            name = names[(slot + step) % len(names)]
            try:
                payload = _post(port, "/synthesize", {"spec": name, "assume_csc": True})
                assert "report" in payload
            except Exception as error:  # noqa: BLE001 — a loss fails the bench
                errors.append(f"{name}: {type(error).__name__}: {error}")
                return
            counts[slot] += 1
            step += 1

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    assert errors == [], errors[:5]
    return sum(counts) / elapsed


def test_obs_serving_overhead(benchmark, perf_record, print_table, tmp_path):
    """Warm req/s with observability off vs. fully on (≤5% budget)."""
    names = _suite()
    store = tmp_path / "store"
    pipeline = Pipeline(store=store)
    for name in names:  # prewarm once: both measurements serve cache hits
        pipeline.run(name, OPTIONS)

    concurrency = 4
    duration = 1.2
    rounds = 4

    def measure(obs) -> float:
        with _served(store, obs=obs) as port:
            for name in names:  # connection + memory-cache warmup round
                _post(port, "/synthesize", {"spec": name, "assume_csc": True})
            return _hammer(port, names, concurrency, duration)

    # interleave off/on measurements — flipping which mode goes first each
    # round — and keep each mode's best: machine drift over the session
    # (and any warmup ordering bias) would otherwise dwarf the per-request
    # cost being priced
    run_dir = tmp_path / "run"
    on_obs = Obs(dir=run_dir, service="bench")
    off_samples: list[float] = []
    on_samples: list[float] = []

    def one_round(off_first: bool) -> None:
        if off_first:
            off_samples.append(measure(None))
            on_samples.append(measure(on_obs))
        else:
            on_samples.append(measure(on_obs))
            off_samples.append(measure(None))

    benchmark.pedantic(one_round, args=(True,), iterations=1, rounds=1)
    for index in range(1, rounds):
        one_round(off_first=index % 2 == 0)
    off_rps = max(off_samples)
    on_rps = max(on_samples)

    # the on-run really recorded: per-request spans hit the sink and the
    # request counters grew with the load
    assert list_traces(run_dir), "obs-on run produced no trace records"
    scraped = parse_prometheus(on_obs.render_metrics())
    synthesized = sum(
        value
        for labels, value in scraped["repro_requests_total"].items()
        if dict(labels).get("endpoint") == "synthesize"
    )
    assert synthesized >= len(names)

    ratio = on_rps / off_rps if off_rps else 0.0
    print_table(
        [
            {"obs": "off", "req_per_s": round(off_rps, 1), "vs_off": 1.0},
            {
                "obs": "on (metrics + traces)",
                "req_per_s": round(on_rps, 1),
                "vs_off": round(ratio, 3),
            },
        ],
        title="Observability overhead — warm /synthesize throughput",
    )
    perf_record["results"]["obs"] = {
        "off_req_per_s": round(off_rps, 1),
        "on_req_per_s": round(on_rps, 1),
        "on_over_off": round(ratio, 4),
        "concurrency": concurrency,
        "budget": "on >= 0.95 * off (asserted at 0.80 for runner noise)",
    }
    # the acceptance budget is 5%; assert with slack so a noisy shared
    # runner cannot flake the suite — the recorded ratio is the real number
    assert ratio >= 0.80, f"observability cost too high: on/off = {ratio:.3f}"


def test_obs_smoke(benchmark, tmp_path):
    """CI smoke case: scrape ``/metrics``, stitch one trace, in milliseconds."""
    from repro.api.client import Client

    store = tmp_path / "store"
    Pipeline(store=store).run("sequencer", OPTIONS)
    run_dir = tmp_path / "run"

    def run():
        obs = Obs(dir=run_dir, service="server")
        with _served(store, obs=obs) as port:
            client = Client(
                f"http://127.0.0.1:{port}", obs=Obs(dir=run_dir, service="client")
            )
            client.synthesize("sequencer", assume_csc=True)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as response:
                return parse_prometheus(response.read().decode("utf-8"))

    families = benchmark.pedantic(run, iterations=1, rounds=3)
    assert "repro_requests_total" in families
    assert "repro_request_seconds_bucket" in families
    stitched = [
        t for t in list_traces(run_dir) if t["root"] == "client:POST /synthesize"
    ]
    assert stitched and "client" in stitched[0]["services"]
