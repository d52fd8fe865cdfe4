"""Table VII — CPU time for the scalable examples (philosophers, pipelines)."""

from __future__ import annotations

import math

from repro.api import Pipeline, Spec, SynthesisOptions
from repro.benchmarks import scalable
from repro.experiments.table7 import table7_rows

#: muller_pipeline depths whose structural stage times the record tracks
SCALING_DEPTHS = (16, 32, 64, 96)
#: literal counts of the structural flow (default options) per depth
PIPELINE_LITERALS = {16: 91, 32: 187, 64: 379, 96: 571}


def _structural_stages(depth: int) -> dict:
    """One uncached structural run of muller_pipeline(depth), per stage."""
    spec = Spec.from_stg(scalable.muller_pipeline(depth), name=f"muller_pipeline_{depth}")
    report = Pipeline().run(spec, SynthesisOptions())
    return {
        "analyze_s": round(report.analysis.seconds, 4),
        "refine_s": round(report.refinement.seconds, 4),
        "synthesize_s": round(report.synthesis.seconds, 4),
        "total_s": round(report.total_seconds, 4),
        "literals": report.literals,
    }


def test_table7_scalable_examples(benchmark, print_table, perf_record):
    """Regenerate Table VII (instance sizes raised now that the bit-packed
    kernel carries both flows)."""
    rows = benchmark.pedantic(
        table7_rows,
        kwargs={
            "philosophers": (3, 4, 5),
            "pipelines": (4, 8, 16, 32, 64),
            "baseline_limit": 50_000,
        },
        iterations=1,
        rounds=1,
    )
    print_table(rows, title="Table VII — CPU time: scalable examples")
    perf_record["results"]["table7"] = rows
    structural_times = [row["structural_s"] for row in rows]
    assert all(isinstance(t, float) for t in structural_times)
    # structural synthesis of the largest pipeline stays fast (well under a
    # minute even on modest hardware; the paper reports seconds as well)
    assert max(structural_times) < 60.0


def test_table7_structural_scaling(benchmark, print_table, perf_record):
    """Structural stage seconds of muller_pipeline at depths 16..96.

    ``growth`` is the exponent k of ``synthesize_s ~ depth**k`` fitted
    through the smallest and largest depth.
    """
    stages = benchmark.pedantic(
        lambda: {depth: _structural_stages(depth) for depth in SCALING_DEPTHS},
        iterations=1,
        rounds=1,
    )
    rows = [{"depth": depth, **stages[depth]} for depth in SCALING_DEPTHS]
    print_table(rows, title="Table VII — structural stages of muller_pipeline")
    low, high = SCALING_DEPTHS[0], SCALING_DEPTHS[-1]
    growth = math.log(
        stages[high]["synthesize_s"] / stages[low]["synthesize_s"]
    ) / math.log(high / low)
    perf_record["results"]["table7_structural_scaling"] = {
        "stages": {f"muller_pipeline_{depth}": stages[depth] for depth in SCALING_DEPTHS},
        "synthesize_growth": round(growth, 2),
    }
    assert {depth: stages[depth]["literals"] for depth in SCALING_DEPTHS} == PIPELINE_LITERALS


def test_table7_structural_smoke(benchmark):
    """Fast regression guard run by CI (``-k smoke``): the structural flow
    on muller_pipeline 32 and 64, no state-based baseline."""
    stages = benchmark.pedantic(
        lambda: {depth: _structural_stages(depth) for depth in (32, 64)},
        iterations=1,
        rounds=1,
    )
    assert {depth: stages[depth]["literals"] for depth in (32, 64)} == {
        depth: PIPELINE_LITERALS[depth] for depth in (32, 64)
    }
    # ~0.6 s on a 2-core box; the quiescent-region union fold took ~3 s
    assert stages[64]["total_s"] < 30.0
