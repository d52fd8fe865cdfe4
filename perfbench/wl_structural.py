"""Workload ``structural-scaling``: the structural flow on growing specs.

One caller, closed loop.  Each op is a fresh, store-less ``Pipeline``
running the structural ``analyze -> refine -> synthesize -> map`` flow on
one rung of a fixed ladder: ``muller_pipeline(n)`` at depths 8..64, where
the structural cover algebra grows fastest, plus ``independent_cells(45)``
and ``dining_philosophers(8)`` as linear-growth controls.  There is no
state-based verification: it exhausts memory on deep pipelines, which is
the state explosion the structural method avoids.

The seed orders the rungs within each round; the ladder itself is fixed, so
every seed measures the same work.  Each op's literal and area counts must
equal the goldens in ``goldens.json``, and ``muller_pipeline`` at depths 4
and 8 is cross-checked once per set-up against the state-based backend.
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

from harness import Op, RunResult, self_peak_rss_mb, timed_setup
from inprocess import Resolutions, closed_loop, rounds_for, trace_extra

LADDER = (
    ("muller_pipeline", 8),
    ("muller_pipeline", 16),
    ("muller_pipeline", 32),
    ("muller_pipeline", 64),
    ("independent_cells", 45),
    ("dining_philosophers", 8),
)
#: pipelines small enough to cross-check against the state-based backend
CROSS_CHECKED = (4, 8)
#: far from every rung's latency on a 2-core box (32: ~0.5 s, 64: ~3 s)
LATENCY_LIMIT_S = 1.5
#: nominal round time (mostly muller_pipeline_64); 20 s give 7 rounds and
#: 42 ops, so the tail is p75 with 10 ops beyond it, and with six rungs it
#: is the median sample of the fifth-slowest rung, not a noisy block edge
ROUND_S = 2.9
SETUP_REPEATS = 3
GOLDENS = json.loads((Path(__file__).with_name("goldens.json")).read_text())


def _setup(keep: bool) -> dict:
    from repro.api import Spec, compare
    from repro.benchmarks import scalable

    rungs = {}
    for family, size in LADDER:
        stg = getattr(scalable, family)(size)
        rungs[f"{family}_{size}"] = stg
    failures = []
    for depth in CROSS_CHECKED:
        if not compare(Spec.from_stg(scalable.muller_pipeline(depth))).matching:
            failures.append(f"muller_pipeline({depth}): the two backends disagree")
    return {"rungs": rungs, "failures": failures}


def run(seed: int, seconds: float, tracer=None) -> RunResult:
    from repro.api import Pipeline, Spec, SynthesisOptions

    state, setup_s = timed_setup(
        _setup, SETUP_REPEATS, imports="import repro.api, repro.benchmarks.scalable"
    )
    rungs = state["rungs"]
    labels = sorted(rungs)
    options = SynthesisOptions()
    resolutions = Resolutions()
    measured: dict = {}

    def make_round(index: int) -> list:
        order = list(labels)
        random.Random(f"{seed}|{index}").shuffle(order)
        return [(label, copy.deepcopy(rungs[label])) for label in order]

    def run_op(item, wrap):
        label, stg = item
        start = time.perf_counter()
        report = wrap(
            lambda: Pipeline(on_event=resolutions).run(
                Spec.from_stg(stg, name=label), options, map_technology=True
            )
        )
        latency = time.perf_counter() - start
        counts = (report.literals, report.mapping.total_area)
        measured.setdefault(label, counts)
        golden = GOLDENS[label]
        return Op(
            latency_s=latency, ok=counts == (golden["literals"], golden["area"]), input=label
        )

    loop = closed_loop(
        make_round,
        run_op,
        rounds_for(seconds, ROUND_S),
        tracer,
        on_trace_start=resolutions.counts.clear,
    )
    result = RunResult(
        **loop.result_fields(),
        setup_s=setup_s,
        latency_limit_s=LATENCY_LIMIT_S,
        literals_total=sum(counts[0] for counts in measured.values()),
        area_total=sum(counts[1] for counts in measured.values()),
        peak_rss_mb=self_peak_rss_mb(),
        failures=list(state["failures"]),
    )
    result.failures += [
        f"{label}: literals/area {measured[label]} != golden {GOLDENS[label]}"
        for label in labels
        if measured[label] != (GOLDENS[label]["literals"], GOLDENS[label]["area"])
    ]
    result.meta.update(loop.meta)
    if loop.traced is not None:
        result.failures += ["a traced op failed its check" for op in loop.traced[1] if not op.ok]
        result.meta["trace_extra"] = trace_extra(tracer, *loop.traced, resolutions.counts)
        result.meta["traced_ops"] = len(loop.traced[1])
    return result

