"""The closed-loop runner the in-process workloads share.

One caller runs ops back to back.  Ops come in *rounds*: a round visits
every input of the workload once, in an order drawn from the seed.  A run
is a whole number of rounds, fixed by ``--seconds`` and the workload's
nominal round time on the 2-core reference box, so every run measures the
same ops, whatever the seed and however fast the machine is that day, and
its tail percentile always rests on the same number of samples.

A full collection runs before every op, so each op starts from the same
collector state and the collections its own allocations trigger fall at
the same points on every run (left to chance, whether a full collection
landed inside an op changed from round to round and from run to run).
That collection, which frees the previous op's cyclic garbage and walks
the long-lived heap, is timed: it is left out of the op's latency and
counted in the round's busy time, so throughput pays for it.  The
host-speed kernel runs between ops, outside their timing, and every op's
latency is adjusted to the reference box's speed (see
``harness.HostMeter``); collection pauses are timed and go into the run's
metadata.

The traced run first runs rounds untraced for half the time, then installs
the span wrappers and replays exactly the same rounds traced.  Comparing
the two halves gives the tracing overhead; the wrappers are removed before
the function returns.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter
from typing import NamedTuple

from harness import HostMeter, Window
from layers import RESOLUTIONS
from tracing import Tracer


class Resolutions:
    """Pipeline ``on_event`` sink counting stage resolutions by source."""

    def __init__(self):
        self.counts: Counter = Counter()

    def __call__(self, event) -> None:
        if event.kind == "stage":
            self.counts[event.status] += 1


class Loop(NamedTuple):
    """What :func:`closed_loop` measured."""

    #: each untraced round's ops
    rounds: list
    #: (untraced ops, traced ops) of a traced run, else None
    traced: tuple
    meta: dict

    def result_fields(self) -> dict:
        """The :class:`harness.RunResult` fields the loop fills in."""
        return {
            "ops": [op for ops in self.rounds for op in ops],
            "windows": [
                Window(ops, sum(op.latency_s + op.collect_s for op in ops),
                       sum(op.raw_s + op.collect_s * (op.raw_s / op.latency_s) for op in ops))
                for ops in self.rounds
            ],
        }


def _run_round(items, run_op, wrap, host: HostMeter, ops: list) -> None:
    before = host.calibrate()
    for item in items:
        start = time.perf_counter()
        gc.collect()
        collect_s = time.perf_counter() - start
        op = run_op(item, wrap)
        after = host.calibrate()
        slowness = (before + after) / 2
        op.collect_s = collect_s / slowness
        ops.append(op.adjust(slowness))
        before = after


def rounds_for(seconds: float, round_s: float) -> int:
    """Rounds that fill ``seconds`` at the nominal round time (at least one)."""
    return max(1, math.ceil(seconds / round_s - 1e-9))


def closed_loop(make_round, run_op, rounds: int, tracer: Tracer = None, on_trace_start=None):
    """Run ``rounds`` rounds and return a :class:`Loop`.

    ``make_round(index)`` lists the round's inputs; ``run_op(item, wrap)``
    times ``wrap(fn)`` around the op's work and returns an :class:`Op`.
    With a ``tracer``, half the rounds (rounded up) run untraced and are
    then replayed traced (``on_trace_start`` is called in between).
    """
    if tracer is not None:
        rounds = (rounds + 1) // 2
    host = HostMeter()
    per_round: list = []
    host.watch_gc(True)
    try:
        for index in range(rounds):
            per_round.append([])
            _run_round(make_round(index), run_op, lambda fn: fn(), host, per_round[-1])
    finally:
        host.watch_gc(False)
    meta = {"rounds": rounds, **host.meta()}
    if tracer is None:
        return Loop(per_round, None, meta)
    traced: list = []
    op_ids = iter(range(1, 1 << 62))
    replay = [make_round(index) for index in range(rounds)]
    if on_trace_start is not None:
        on_trace_start()
    tracer.install()
    try:
        for items in replay:
            _run_round(items, run_op, lambda fn: tracer.op(next(op_ids), fn), host, traced)
    finally:
        tracer.remove()
    untraced = [op for ops in per_round for op in ops]
    return Loop(per_round, (untraced, traced), meta)


def trace_extra(tracer: Tracer, untraced: list, traced: list, resolutions: Counter) -> dict:
    """Per-layer metrics the in-process traced run derives itself."""
    base = sum(op.latency_s for op in untraced)
    with_spans = sum(op.latency_s for op in traced)
    extra = {
        "trace.overhead_pct": 100.0 * (with_spans / base - 1.0),
        "trace.attributed_share": tracer.attributed_share(),
    }
    for source in RESOLUTIONS:
        extra[f"api.pipeline.{source}"] = resolutions[source] / len(traced)
    return extra
