"""Workload ``serve-mixed``: synthesis over HTTP from a store-backed server.

One server process runs the program's public ``create_server`` (started by
``serve_launch.py``) over a fresh store whose hot LRU, like the pipeline's
in-memory cache, is smaller than the working set.  The load generator runs
here as an open loop: requests are due at a fixed rate, at most
:data:`SENDERS` threads send them, one connection each, and each request is
timed from when it was due, so a stall also charges the requests queued
behind it.  Latency and goodput come from this phase.  After each of its
:data:`WINDOWS` segments the same senders send a slice of
:data:`BURST_REQUESTS` more requests back to back, and throughput is the
burst requests over the burst windows' summed time, so it reads the
server's capacity, not the offered rate.
The whole run, server included, stays on one core, and the host-speed
kernel (``harness.HostMeter``) runs on it while the server is idle: before
and after every open-loop segment and burst window, and in every
:data:`METER_EVERY`-th gap of the open loop.  The host's speed changes
within a second, so a segment's latencies are adjusted by the mean of all
readings in and around it, and a window's time by the mean of the two
around it.  Latencies are adjusted and smoothed per input as in the
in-process workloads (``harness.median_latency_ms``): a request's input is
the warm spec it asks for, or the catalogue spec behind a cold one.

Most requests are warm ``/synthesize`` calls over the registry and a fixed
catalogue of generated specs, in rounds that each visit every warm spec
once, so some hit memory, some the LRU and some the store on disk.  A
fixed share are cold, one in every block of ``1 / COLD_SHARE`` requests: a
catalogue spec under a model name never requested before, which the
server computes and writes to the store.  The seed names the cold specs
and orders the requests; the catalogue itself is fixed, so every seed
offers the same mix of work.  The repository holds no trace of real
traffic, so the mix (the cold share and the even warm rounds) is assumed,
not measured.

Every served report's spec hash and literal count must equal the result of
the same request run in process, which is computed after the timed phases.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

from harness import (
    OUT_DIR, ROOT, HostMeter, Op, RunResult, Window, percentile, proc_peak_rss_mb,
    timed_setup,
)
from layers import RESOLUTIONS
from tracing import load_spans, Tracer

#: the registry specs the structural flow synthesizes without a CSC override
WARM_REGISTRY = (
    "completion", "converter_2to4", "dma_ctrl", "fig1", "fig6", "glatch_3",
    "glatch_5", "glatch_8", "handshake_seq", "independent_cells_10",
    "independent_cells_20", "independent_cells_45", "independent_cells_5",
    "muller_pipeline_16", "muller_pipeline_2", "muller_pipeline_32",
    "muller_pipeline_4", "muller_pipeline_8", "parallelizer", "philosophers_3",
    "philosophers_5", "philosophers_8", "pipeline_ctrl", "rw_port", "selector",
    "sequencer",
)
CATALOGUE_STREAM = 1
#: the first 24 specs of generator stream 1 that the structural flow
#: synthesizes and maps under ``assume_csc`` (taken in index order)
CATALOGUE = (
    2, 5, 13, 14, 16, 19, 25, 26, 29, 30, 31, 41,
    43, 47, 49, 51, 52, 55, 61, 62, 80, 82, 86, 87,
)
#: requests per second offered: ~30% of the 140-240/s (as measured) at
#: which a 2-sender burst of this mix saturates the server and the load
#: generator sharing one core of the 2-core reference box (the burst
#: windows measure it on every run), so requests queue behind each other
#: on the service lock, yet a spell in which the shared host runs at half
#: speed does not push the server near saturation (at 100/s such spells
#: took p50 from 5 up to 36 ms); 20 s give 1200 samples, so the tail is p99
RATE = 60.0
#: two, so the next request can be sent while one is still served
SENDERS = 2
#: the open loop times the host-speed kernel in one of this many gaps
#: between due times, this far into the gap (a share of it), when the
#: server is idle; the kernel takes ~4 ms of the 16.7 ms gap, so it ends
#: before the next request is due
METER_EVERY = 3
METER_AT = 0.4
METER_SLACK_S = 0.002
#: assumed share of requests for a spec the server has never seen
COLD_SHARE = 0.1
#: requests of the saturation burst, sent in equal windows, one after each
#: of as many open-loop segments; each window holds whole blocks of
#: ``1 / COLD_SHARE`` requests, so all offer the same share of cold work
BURST_REQUESTS = 1600
WINDOWS = 32
#: the server's hot store LRU, in documents; the warm set holds ~200
LRU_DOCS = 48
#: the server pipeline's in-memory cache is evicted above this many artifacts
MAX_CACHED = 64
#: ~99% of open-loop requests meet it on the 2-core reference box
LATENCY_LIMIT_S = 0.05
REQUEST_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
#: a generator whose p99 lateness exceeds half the latency limit is
#: flagged as behind: its late requests would miss the limit on its account
BEHIND_MS = LATENCY_LIMIT_S * 1000.0 / 2


def catalogue_texts(seed: int, prefix: str, count: int) -> list:
    """``count`` catalogue specs as ``.g`` text, renamed ``<prefix>_<seed>_<k>``."""
    from repro.api import Spec
    from repro.corpus import generate_spec
    from repro.corpus.generator import build_from_recipe

    recipes = [generate_spec(CATALOGUE_STREAM, index).recipe for index in CATALOGUE]
    texts = []
    for k in range(count):
        stg = build_from_recipe(recipes[k % len(recipes)])
        stg.name = f"{prefix}_{seed}_{k}"
        texts.append(Spec.from_stg(stg).text)
    return texts


def request_body(spec: str) -> dict:
    body = {"spec": spec, "map": True}
    if "\n" in spec:  # generated specs are not CSC-certified structurally
        body["assume_csc"] = True
    return body


def plan_requests(seed: int, count: int) -> tuple:
    """(warm specs, request sequence of spec strings, their inputs) from the seed.

    Each block of ``1 / COLD_SHARE`` requests holds one cold request at a
    drawn place; the warm ones follow rounds of the warm specs, each round
    in a drawn order.  A request's input names the work it asks for: its
    warm spec, or the catalogue spec a cold request renames.
    """
    warm = list(WARM_REGISTRY) + catalogue_texts(seed, "serve", len(CATALOGUE))
    rng = random.Random(f"{seed}|requests")
    block = round(1 / COLD_SHARE)
    cold_at = {start + rng.randrange(block) for start in range(0, count, block)}
    cold = iter(enumerate(
        catalogue_texts(seed, "cold", sum(1 for index in cold_at if index < count))
    ))
    warm_round: list = []
    sequence, inputs = [], []
    for index in range(count):
        if index in cold_at:
            k, spec = next(cold)
            sequence.append(spec)
            inputs.append(f"cold {k % len(CATALOGUE)}")
            continue
        if not warm_round:
            warm_round = rng.sample(range(len(warm)), len(warm))
        k = warm_round.pop()
        sequence.append(warm[k])
        inputs.append(f"warm {k}")
    return warm, sequence, inputs


def post(port: int, body: dict) -> tuple:
    """(HTTP status, response bytes) of one ``/synthesize`` request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request(
            "POST", "/synthesize", json.dumps(body), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """A ``serve_launch.py`` child process over its own fresh store."""

    def __init__(self, span_file: Path):
        self.store = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
        self.process = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).with_name("serve_launch.py")),
                "--store", str(self.store), "--span-file", str(span_file),
            ],
            cwd=ROOT,
            stdin=subprocess.PIPE,  # closing it (or dying) stops the server
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._expect("PORT").split()[1])

    def _expect(self, word: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(word):
            self.stop()
            raise RuntimeError(f"server said {line!r}, expected {word}")
        return line

    def signal(self, signum: int, word: str) -> None:
        self.process.send_signal(signum)
        self._expect(word)

    def stop(self) -> None:
        self.process.stdin.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


class Sent(NamedTuple):
    """One request of the open loop (times in seconds)."""

    op: int
    spec: str
    late: float  # send time minus due time
    latency: float  # completion minus due time
    roundtrip: float  # completion minus send time
    done: float
    status: int
    payload: bytes


def drive(port: int, specs: list, first_op: int, tagged: bool, rate=RATE,
          host: HostMeter = None) -> tuple:
    """Offer ``specs`` as an open loop at ``rate``; return (records, elapsed, readings).

    With ``rate=None`` the senders send back to back (a closed loop), and
    each request is due when it is sent.  With a ``host`` meter, the
    host-speed kernel runs once in every :data:`METER_EVERY` gaps of the
    open loop, a little after a request was due, if no request is in
    flight then; ``readings`` are its slowness values.
    """
    records: list = []
    readings: list = []
    claim = threading.Lock()
    cursor = iter(range(len(specs)))
    in_flight = [0]
    start = time.perf_counter() + 0.01

    def sender():
        while True:
            with claim:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            body = request_body(specs[index])
            if tagged:
                body["bench_op"] = first_op + index
            with claim:
                in_flight[0] += 1
            sent = time.perf_counter()
            try:
                status, payload = post(port, body)
            except OSError as error:
                status, payload = 0, str(error).encode()
            done = time.perf_counter()
            with claim:
                in_flight[0] -= 1
            records.append(
                Sent(first_op + index, specs[index], sent - due, done - due, done - sent,
                     done, status, payload)
            )

    def meter():
        for index in range(0, len(specs) - 1, METER_EVERY):
            delay = start + (index + METER_AT) / rate - time.perf_counter()
            if delay < -METER_SLACK_S:
                continue  # too late to finish before the next request is due
            time.sleep(max(delay, 0.0))
            with claim:
                idle = not in_flight[0]
            if idle:
                readings.append(host.calibrate(passes=1))

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    if host is not None and rate:
        threads.append(threading.Thread(target=meter))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records), max(record.done for record in records) - start, readings


def reference(spec: str) -> tuple:
    """(spec hash, literals) of the same request run in process."""
    from repro.api import Pipeline, Spec, SynthesisOptions

    body = request_body(spec)
    loaded = Spec.load(spec)
    report = Pipeline().run(
        loaded, SynthesisOptions(assume_csc=body.get("assume_csc", False)), map_technology=True
    )
    return loaded.content_hash, report.literals


def interleaved(port: int, specs: list, burst_specs: list, host: HostMeter) -> tuple:
    """The untraced run's load: open-loop segments, each followed by a burst window.

    The open loop offers ``specs`` in :data:`WINDOWS` segments at
    :data:`RATE`; after each, the senders send the next slice of
    ``burst_specs`` back to back.  The host-speed kernel runs between
    them and in the open loop's gaps, while the server is idle.  Returns (open-loop segments as
    (records, slowness), summed segment seconds, burst windows as
    (records, seconds, slowness)).
    """
    burst_size = len(burst_specs) // WINDOWS
    segments, elapsed, windows = [], 0.0, []
    before = host.calibrate()
    for index in range(WINDOWS):
        start, end = (len(specs) * part // WINDOWS for part in (index, index + 1))
        records, seconds, readings = drive(port, specs[start:end], start, tagged=False,
                                           host=host)
        middle = host.calibrate()
        segments.append((records, statistics.fmean([before, *readings, middle])))
        elapsed += seconds
        first = index * burst_size
        records, seconds, _ = drive(port, burst_specs[first:first + burst_size],
                                    len(specs) + first, tagged=False, rate=None)
        before = host.calibrate()
        windows.append((records, seconds, (middle + before) / 2))
    return segments, elapsed, windows


def run(seed: int, seconds: float, tracer: Tracer = None) -> RunResult:
    from repro.api import Report

    span_file = OUT_DIR / f"spans-serve-mixed-{seed}.jsonl"
    count = int(RATE * seconds)
    warm, specs, inputs = plan_requests(seed, count + BURST_REQUESTS)
    specs, burst_specs = specs[:count], specs[count:]
    failures: list = []
    host = HostMeter()

    prewarmed: dict = {}

    def setup(keep: bool) -> Server:
        server = Server(span_file)
        try:
            for spec in warm:
                status, payload = post(server.port, request_body(spec))
                if status != 200:
                    failures.append(f"prewarm {spec[:40]!r}: HTTP {status} {payload[:200]!r}")
                else:
                    prewarmed[spec] = payload
        except BaseException:
            server.stop()
            raise
        if not keep:
            server.stop()
        return server

    server, setup_s = timed_setup(setup, SETUP_REPEATS)
    bursts: list = []
    traced_segments: list = []
    half = count if tracer is None else count // 2  # the traced half follows
    try:
        if tracer is None:
            segments, elapsed, bursts = interleaved(server.port, specs, burst_specs, host)
        else:
            before = host.calibrate()
            records, elapsed, readings = drive(server.port, specs[:half], 0, tagged=False,
                                               host=host)
            middle = host.calibrate()
            segments = [(records, statistics.fmean([before, *readings, middle]))]
            server.signal(signal.SIGUSR1, "TRACE ON")
            records, _, readings = drive(server.port, specs[half:], half, tagged=True, host=host)
            server.signal(signal.SIGUSR2, "TRACE OFF")
            traced_segments = [(records, statistics.fmean([middle, *readings, host.calibrate()]))]
        peak_rss = proc_peak_rss_mb(server.process.pid)
    finally:
        server.stop()

    references: dict = {}
    resolutions = {source: 0 for source in RESOLUTIONS}

    def check(record: Sent) -> bool:
        op_id, spec, _, _, _, _, status, payload = record
        if status != 200:
            failures.append(f"{spec[:40]!r}: HTTP {status} {payload[:200]!r}")
            return False
        data = json.loads(payload)
        report = Report.from_json(data["report"])
        if spec not in references:
            references[spec] = reference(spec)
        served = (report.spec_hash, report.literals)
        if served != references[spec]:
            failures.append(f"{spec[:40]!r}: served {served} != in-process {references[spec]}")
            return False
        if op_id >= half and op_id < count:  # a traced open-loop request
            for source in RESOLUTIONS:
                resolutions[source] += data["resolution"][source]
        return True

    def adjusted(segments: list) -> list:
        return [Op(record.latency, check(record), inputs[record.op]).adjust(slowness)
                for records, slowness in segments for record in records]

    ops = adjusted(segments)
    traced_ops = adjusted(traced_segments)
    burst_ops = [Op(latency_s=record.roundtrip, ok=check(record)).adjust(slowness)
                 for window, _, slowness in bursts for record in window]
    # one throughput window: every burst request over the bursts' summed time
    windows = [Window(burst_ops, sum(seconds / slowness for _, seconds, slowness in bursts),
                      sum(seconds for _, seconds, _ in bursts))] if bursts else []
    records = [record for records, _ in segments for record in records]
    traced_records = [record for records, _ in traced_segments for record in records]

    # quality over the warm set, each spec once, from the kept server's prewarm
    warm_reports = [
        Report.from_json(json.loads(payload)["report"]) for payload in prewarmed.values()
    ]
    lateness_ms = [record.late * 1000.0 for record in records + traced_records]
    late_p99 = percentile(lateness_ms, 99)
    result = RunResult(
        ops=ops,
        windows=windows,
        elapsed_s=elapsed,
        setup_s=setup_s,
        latency_limit_s=LATENCY_LIMIT_S,
        literals_total=sum(report.literals for report in warm_reports),
        area_total=sum(report.mapping.total_area for report in warm_reports),
        peak_rss_mb=peak_rss,
        failures=failures,
    )
    result.meta.update(
        rate_per_s=RATE,
        senders=SENDERS,
        cold_requests=sum(1 for spec in specs + burst_specs if spec not in warm),
        late_ms_p99=late_p99,
        generator_behind=late_p99 > BEHIND_MS,
        **host.meta(),
    )
    if bursts:
        rates = [len(window) / seconds for window, seconds, _ in bursts]
        result.meta["burst_rates"] = rates
        # the offered rate must stay below what the server can complete
        result.meta["rate_over_capacity"] = RATE > statistics.median(rates)
    if tracer is not None:
        result.meta["traced_ops"] = len(traced_records)
        result.meta["trace_extra"] = _trace_extra(
            tracer, span_file, records + traced_records, ops, traced_ops, resolutions, late_p99
        )
    return result


def _trace_extra(tracer, span_file, records, untraced, traced, resolutions, late_p99) -> dict:
    """Load the server's spans into ``tracer`` and derive the serve-only metrics."""
    header, tracer.spans = load_spans(span_file)
    service = {span[4]: span[6] - span[5] for span in tracer.spans
               if span[2] == "api.server.service_s" and not span[1]}
    http = [record.roundtrip - service[record.op] for record in records if record.op in service]
    ops = len(traced)
    extra = {
        "api.server.http_s": statistics.fmean(http),
        "trace.overhead_pct": 100.0 * (
            statistics.fmean(op.latency_s for op in traced)
            / statistics.fmean(op.latency_s for op in untraced)
            - 1.0
        ),
        "trace.attributed_share": tracer.attributed_share(),
        "loadgen.late_ms_p99": late_p99,
        "loadgen.sent": len(records),
        "loadgen.failed": sum(1 for record in records if record.status != 200),
    }
    for key, value in header["store"].items():
        extra[f"api.store.{key}"] = value / ops
    for source in RESOLUTIONS:
        extra[f"api.pipeline.{source}"] = resolutions[source] / ops
    return extra
