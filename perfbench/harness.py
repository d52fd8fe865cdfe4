"""Shared measurement code: op records, percentiles, metrics and metadata.

Every workload returns a :class:`RunResult`; :func:`end_to_end_metrics`
turns it into the end-to-end metric set named in ``BENCHMARK.json``.  The
same code serves the untraced and the traced run, so both see one op
definition.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

#: the checkout root (the directory holding ``BENCHMARK.json``)
ROOT = Path(__file__).resolve().parent.parent
#: working directory for stores, span files and run records (git-ignored)
OUT_DIR = ROOT / ".perfbench"

#: candidate tail percentiles, highest first; a run reports the highest one
#: with at least :data:`TAIL_MIN_BEYOND` samples strictly above it
TAIL_PERCENTILES = (99, 90, 75, 50)
TAIL_MIN_BEYOND = 10

#: table size of the host-speed calibration kernel (see :class:`HostMeter`)
CALIBRATION_ITEMS = 5_000
#: the kernel's best-of-two time on the 2-core reference box in a fast spell
CALIBRATION_REFERENCE_MS = 2.3
#: a run whose kernel times' interquartile range exceeds this share of
#: their median is flagged ``host_drift``
HOST_DRIFT = 0.15


def use_source_tree() -> None:
    """Import the program from ``<root>/src`` (the checkout is not installed)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {src}; run from a full checkout"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@dataclass
class Op:
    """One timed operation: its latency and whether its output checked out."""

    #: latency; at the reference box's speed once :meth:`adjust` ran
    #: (see :class:`HostMeter`), else as measured
    latency_s: float
    ok: bool = True
    #: which input the op ran on
    input: str = ""
    #: latency as measured on the wall clock (None: not adjusted)
    raw_s: float = None
    #: the full collection run just before the op, outside its latency,
    #: at the reference box's speed
    collect_s: float = 0.0

    def adjust(self, slowness: float) -> "Op":
        """Scale the measured latency by the host's slowness around it."""
        self.raw_s = self.latency_s
        self.latency_s = self.raw_s / slowness
        return self

    @property
    def measured_s(self) -> float:
        return self.latency_s if self.raw_s is None else self.raw_s


class Window(NamedTuple):
    """One throughput window: its ops and their busy time."""

    ops: list
    #: at the reference box's speed
    seconds: float
    #: as measured on the wall clock
    raw_seconds: float


@dataclass
class RunResult:
    """What one workload run measured; the metrics are derived from it."""

    #: the latency samples
    ops: list = field(default_factory=list)
    #: throughput :class:`Window` list: a closed loop's rounds, or the
    #: slices of an open loop's saturation burst
    windows: list = field(default_factory=list)
    #: an open loop's timed phase: first due time to last completion
    elapsed_s: float = 0.0
    #: median over the set-up repetitions
    setup_s: float = 0.0
    #: ops at or under this latency count towards goodput
    latency_limit_s: float = 1.0
    #: exact quality counts over the workload's distinct inputs
    literals_total: int = 0
    area_total: int = 0
    peak_rss_mb: float = 0.0
    #: check failures, one line each (empty when every op checked out)
    failures: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def checked_ops(self) -> list:
        """Every op whose output was checked (an open loop's burst included)."""
        if not self.elapsed_s:
            return self.ops
        return self.ops + [op for window in self.windows for op in window.ops]

    @property
    def attempted(self) -> int:
        return len(self.checked_ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.checked_ops if not op.ok)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil, 1-based
    return ordered[int(rank) - 1]


def tail_percentile(values) -> int:
    """Highest candidate percentile with enough samples strictly beyond it."""
    for pct in TAIL_PERCENTILES:
        cut = percentile(values, pct)
        if sum(1 for v in values if v > cut) >= TAIL_MIN_BEYOND:
            return pct
    return 50


def _smoothed_ms(ops: list, raw: bool) -> list:
    """The ops' latencies in ms, each replaced by its input's median latency.

    Only when every op names its input; otherwise as they are.
    """
    values = [(op.measured_s if raw else op.latency_s) * 1000.0 for op in ops]
    if not all(op.input for op in ops):
        return values
    per_input: dict = {}
    for op, value in zip(ops, values):
        per_input.setdefault(op.input, []).append(value)
    medians = {name: statistics.median(samples) for name, samples in per_input.items()}
    return [medians[op.input] for op in ops]


def median_latency_ms(ops: list, raw: bool = False) -> float:
    """Median op latency; per input first when every op names its input.

    The in-process workloads run every input once per round, and the served
    one sends a fixed mix of inputs, so the latencies form blocks, one per
    input.  The plain median then falls on the edge between two inputs'
    blocks and jumps between them with each sample's jitter.  Each sample
    is therefore first replaced by its input's median latency, and the
    median is that of the input at the middle rank.
    """
    return statistics.median(_smoothed_ms(ops, raw))


def tail_latency_ms(ops: list, pct: int, raw: bool = False) -> float:
    """Nearest-rank ``pct`` latency; per input first when ops name inputs.

    As for the median, each sample is first replaced by its input's median
    latency, so the tail is the typical latency of the input at that rank
    and not whichever sample a collection pause or a slow host moment lifted
    across a block edge.
    """
    return percentile(_smoothed_ms(ops, raw), pct)


def _ok_rate(ops: list, seconds: float, limit_s: float = None) -> float:
    """Ok ops (within ``limit_s``, if given) per second."""
    return sum(
        1 for op in ops if op.ok and (limit_s is None or op.latency_s <= limit_s)
    ) / seconds


def end_to_end_metrics(result: RunResult) -> dict:
    """The ``end_to_end`` metric set of ``BENCHMARK.json`` for one run.

    Times are at the reference box's speed (see :class:`HostMeter`); the
    same metrics from the wall-clock times go into the run's metadata as
    ``raw``.  Throughput is the median over the throughput windows of each
    window's rate, so a slow spell that covers a window or two does not
    move it.  Goodput comes from the same windows in a closed loop; an open
    loop's goodput is its ok ops within the latency limit per second of its
    timed phase, at the offered rate.
    """
    latencies = [op.latency_s for op in result.ops]
    limit = result.latency_limit_s
    windows = result.windows
    throughput = statistics.median(_ok_rate(w.ops, w.seconds) for w in windows)
    if result.elapsed_s:
        goodput = _ok_rate(result.ops, result.elapsed_s, limit)
    else:
        goodput = statistics.median(_ok_rate(w.ops, w.seconds, limit) for w in windows)
    pct = tail_percentile(latencies)
    checked = result.checked_ops
    result.meta["tail_percentile"] = pct
    result.meta["samples"] = len(latencies)
    result.meta["latency_limit_ms"] = result.latency_limit_s * 1000.0
    if any(op.raw_s is not None for op in result.ops):
        result.meta["raw"] = {
            "throughput_ops_s": statistics.median(_ok_rate(w.ops, w.raw_seconds) for w in windows),
            "latency_p50_ms": median_latency_ms(result.ops, raw=True),
            "latency_tail_ms": tail_latency_ms(result.ops, pct, raw=True),
        }
    return {
        "setup_s": (result.setup_s, "s"),
        "throughput_ops_s": (throughput, "1/s"),
        "goodput_ops_s": (goodput, "1/s"),
        "latency_p50_ms": (median_latency_ms(result.ops), "ms"),
        "latency_tail_ms": (tail_latency_ms(result.ops, pct), "ms"),
        "ok_ratio": (sum(1 for op in checked if op.ok) / len(checked), "ratio"),
        "literals_total": (result.literals_total, "count"),
        "area_total": (result.area_total, "count"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class HostMeter:
    """Measures how fast the shared host runs right now, and the collector.

    The 2-core reference box is a VM on a shared machine: the same
    pure-Python code runs up to ~2x slower there for seconds to minutes at
    a time, with no steal time reported, and each core drifts on its own
    (kernel times on the two cores, sampled together for 30 s, correlated
    0.09).  A run therefore keeps all its work on one core
    (:func:`pin_to_one_core`), and :meth:`calibrate` times a fixed kernel
    that belongs to the benchmark, so no change to the program moves it,
    on that core.  It returns the host's *slowness*: that time over the
    kernel's time on the reference box in a fast spell.  Each timed piece
    of work (an in-process op, a served open-loop segment or burst window,
    a set-up) is bracketed by two kernel runs outside its timing and its
    measured time is divided by the mean of the two readings.  A change to
    the program moves these adjusted times as much as the measured ones; a
    slow spell of the core moves only the measured ones.  Both are kept:
    ops carry their measured latency, and the run's metadata the metrics
    computed from it (``raw``).  Every run records the kernel's quartiles
    and a ``host_drift`` flag for a run whose kernel times spread by more
    than :data:`HOST_DRIFT`, so drifted runs can be set aside.

    While :meth:`watch_gc` is on, every garbage collection is timed.  The
    collector keeps the program's configuration, so each op pays for the
    collections its allocations trigger; the total is recorded so a
    change in cyclic garbage shows.
    """

    def __init__(self):
        self.kernel_s: list = []
        self.gc_s = 0.0
        self.collections = [0, 0, 0]
        self.gc_watched = False
        self._gc_started = 0.0

    def calibrate(self, passes: int = 2) -> float:
        """Time the kernel (best of ``passes``, skipping a one-off interruption).

        The kernel builds and walks a table of tuples and frozensets, the
        kind of work the program's cube and place-set algebra does.  The
        collector is off while it runs, so it neither pauses the kernel nor
        collects garbage the ops left behind (the kernel's own objects are
        acyclic and freed as it ends).
        """
        best = float("inf")
        gc.disable()
        try:
            for _ in range(passes):
                start = time.perf_counter()
                table = {}
                for value in range(CALIBRATION_ITEMS):
                    table[value, value + 1] = frozenset((value, 2 * value, 3 * value))
                sum(len(cells) for key, cells in table.items() if key[0] in cells)
                del table
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        self.kernel_s.append(best)
        return best * 1000.0 / CALIBRATION_REFERENCE_MS

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.collections[info["generation"]] += 1

    def watch_gc(self, on: bool) -> None:
        if on:
            gc.callbacks.append(self._on_gc)
            self.gc_watched = True
        else:
            gc.callbacks.remove(self._on_gc)

    def meta(self) -> dict:
        kernel_ms = [seconds * 1000.0 for seconds in self.kernel_s]
        first, median, third = statistics.quantiles(kernel_ms, n=4)
        meta = {
            "calibrations": len(kernel_ms),
            "calibration_ms_quartiles": [first, median, third],
            "host_slowness": median / CALIBRATION_REFERENCE_MS,
            "host_drift": (third - first) / median > HOST_DRIFT,
        }
        if self.gc_watched:
            meta.update(gc_s=self.gc_s, gc_collections=self.collections)
        return meta


def pin_to_one_core() -> int:
    """Keep this process, its later threads and its children on one core.

    The served workload's server and load generator then share the core
    whose speed the host-speed kernel measures (see :class:`HostMeter`),
    instead of each running on a core that drifts on its own.
    """
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def run_metadata() -> dict:
    """Machine facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def fresh_import(imports: str) -> tuple:
    """(seconds a new interpreter takes to start and run ``imports``, its slowness).

    The child reads the clock as soon as the imports are done and then
    times the host-speed kernel itself (see :class:`HostMeter`), so its
    time can be adjusted like an op's.
    """
    child = f"import time\n{imports}\ndone = time.perf_counter()\n" + (
        "import harness\nprint(done, harness.HostMeter().calibrate())"
    )
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", child],
        check=True,
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(Path(__file__).parent)])},
    )
    done, slowness = (float(word) for word in completed.stdout.split())
    return done - start, slowness


def timed_setup(setup, repeats: int, imports: str = None) -> tuple:
    """Run ``setup`` ``repeats`` times; return (last value, median seconds).

    ``setup(keep)`` builds the workload's ready state; it is told whether
    its result is the one kept (earlier ones must release what they hold).
    An in-process workload names its ``imports``: each repetition then
    also times a fresh interpreter running them.  Each part is adjusted to
    the reference box's speed by the kernel timed on the run's core (see
    :class:`HostMeter`): the fresh interpreter's in the child, the rest
    around it here.
    """
    host = HostMeter()
    times = []
    value = None
    for index in range(repeats):
        import_s = 0.0
        if imports is not None:
            import_s, import_slowness = fresh_import(imports)
            import_s /= import_slowness
        before = host.calibrate()
        start = time.perf_counter()
        value = setup(index == repeats - 1)
        rest = time.perf_counter() - start
        after = host.calibrate()
        times.append(import_s + rest / ((before + after) / 2))
    return value, statistics.median(times)


def format_result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final stdout line: the one JSON object the contract asks for."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
