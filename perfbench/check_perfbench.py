"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -c perfbench/pytest.ini perfbench -q

(the file is not named ``test_*.py``, so the program's own test suite does
not collect it).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.use_source_tree()

import layers  # noqa: E402
import wl_fuzz  # noqa: E402
import wl_serve  # noqa: E402
import wl_structural  # noqa: E402
from harness import (  # noqa: E402
    Op, RunResult, Window, end_to_end_metrics, percentile, tail_percentile
)
from tracing import SPANS, Tracer, _resolve  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT = ("petri.states", "sat.clauses_added", "gates.codes_checked")


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _values(result: dict, names) -> dict:
    return {name: result["metrics"][name]["value"] for name in names}


def test_same_seed_gives_identical_exact_counts():
    args = ("--workload", "fuzz-farm", "--seed", "3", "--seconds", "1")
    first = _run(*args, "--trace", "1")
    second = _run(*args, "--trace", "1")
    assert _values(first, EXACT) == _values(second, EXACT)
    assert first["metrics"]["petri.states"]["value"] > 0
    quality = ("literals_total", "area_total")
    assert _values(_run(*args, "--trace", "0"), quality) == _values(
        _run(*args, "--trace", "0"), quality
    )


def test_metric_names_match_benchmark_json():
    result = RunResult(ops=[Op(0.1)], windows=[Window([Op(0.1)], 0.1, 0.1)])
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(end_to_end_metrics(result))
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == (
        layers.per_layer_spec()
    )


def test_different_seed_changes_the_input_set():
    from repro.api import Spec

    def hashes(seed):
        return [Spec.from_stg(stg).content_hash for _, stg in wl_fuzz.generate(seed)]

    assert set(hashes(1)).isdisjoint(hashes(2))
    assert hashes(1) == hashes(1)
    warm_1, requests_1, _ = wl_serve.plan_requests(1, 200)
    warm_2, requests_2, _ = wl_serve.plan_requests(2, 200)
    assert requests_1 != requests_2
    assert set(requests_1) - set(warm_1) != set(requests_2) - set(warm_2)
    assert wl_serve.plan_requests(1, 200)[:2] == (warm_1, requests_1)


def test_every_seed_offers_the_same_request_mix():
    block = round(1 / wl_serve.COLD_SHARE)
    mixes = []
    for seed in (1, 2):
        warm, requests, inputs = wl_serve.plan_requests(seed, 500)  # 9 warm rounds
        for start in range(0, len(requests), block):
            assert sum(spec not in warm for spec in requests[start:start + block]) == 1
        mixes.append(sorted(inputs))
    assert mixes[0] == mixes[1]


@pytest.mark.parametrize("count", [5, 20, 50, 120, 400, 1000, 3000])
def test_tail_metric_only_where_ten_samples_lie_beyond(count):
    values = [float(index) for index in range(count)]
    pct = tail_percentile(values)
    if pct != 50:
        assert sum(1 for v in values if v > percentile(values, pct)) >= 10
    higher = [p for p in harness.TAIL_PERCENTILES if p > pct]
    for p in higher:
        assert sum(1 for v in values if v > percentile(values, p)) < 10


def test_goodput_never_exceeds_throughput():
    ops = [Op(0.05), Op(0.5), Op(2.0), Op(0.01, ok=False), Op(3.0, ok=False)]
    windows = [Window(ops[:2], 0.55, 0.6), Window(ops[2:4], 2.01, 2.2), Window(ops[4:], 3.0, 3.3)]
    for limit in (0.001, 0.1, 1.0, 10.0):
        result = RunResult(ops=ops, windows=windows, latency_limit_s=limit)
        metrics = end_to_end_metrics(result)
        assert metrics["goodput_ops_s"][0] <= metrics["throughput_ops_s"][0]


def test_served_goodput_stays_below_burst_throughput():
    result = wl_serve.run(seed=1, seconds=2.0)
    metrics = end_to_end_metrics(result)
    assert not result.failures
    assert result.attempted == 2 * wl_serve.RATE + wl_serve.BURST_REQUESTS
    assert not result.meta["rate_over_capacity"]
    assert metrics["goodput_ops_s"][0] <= metrics["throughput_ops_s"][0]


def test_host_adjustment_scales_times_and_keeps_the_measured_ones():
    ops = [Op(0.2, input="a").adjust(2.0), Op(0.4, input="b").adjust(1.0)]
    assert (ops[0].latency_s, ops[0].raw_s) == (0.1, 0.2)
    result = RunResult(ops=ops, windows=[Window(ops, 0.5, 0.6)])
    metrics = end_to_end_metrics(result)
    assert metrics["throughput_ops_s"][0] == 2 / 0.5
    assert metrics["latency_p50_ms"][0] == 250.0
    assert result.meta["raw"] == {
        "throughput_ops_s": 2 / 0.6, "latency_p50_ms": 300.0, "latency_tail_ms": 200.0,
    }


def test_host_meter_reports_slowness_against_the_reference():
    host = harness.HostMeter()
    slowness = [host.calibrate() for _ in range(5)]
    assert all(value > 0 for value in slowness)
    meta = host.meta()
    assert meta["calibrations"] == 5
    assert meta["host_slowness"] == pytest.approx(
        meta["calibration_ms_quartiles"][1] / harness.CALIBRATION_REFERENCE_MS
    )


def test_planted_wrong_output_lowers_ok_ratio(monkeypatch):
    monkeypatch.setattr(
        wl_structural, "LADDER", (("muller_pipeline", 8), ("dining_philosophers", 8))
    )
    monkeypatch.setattr(wl_structural, "SETUP_REPEATS", 1)
    golden = dict(wl_structural.GOLDENS)
    golden["muller_pipeline_8"] = {"literals": 42, "area": 100}  # true count: 43
    monkeypatch.setattr(wl_structural, "GOLDENS", golden)
    result = wl_structural.run(seed=1, seconds=0.0)
    metrics = end_to_end_metrics(result)
    assert metrics["ok_ratio"][0] == 0.5
    assert result.failures


def test_planted_netlist_bug_fails_fuzz_ops(monkeypatch):
    from repro.corpus import checks

    original = checks.run_check_suite
    monkeypatch.setattr(
        checks, "run_check_suite", lambda spec, **kw: original(spec, force_flip=True, **kw)
    )
    monkeypatch.setattr(wl_fuzz, "CORPUS_SIZE", 10)
    monkeypatch.setattr(wl_fuzz, "SETUP_REPEATS", 1)
    result = wl_fuzz.run(seed=1, seconds=0.0)
    assert end_to_end_metrics(result)["ok_ratio"][0] < 1.0


def test_tracer_removes_every_wrapper():
    targets = [target for names in SPANS.values() for target in names]
    before = {target: _resolve(target)[2] for target in targets}
    tracer = Tracer()
    tracer.install()
    assert any(_resolve(target)[2] is not before[target] for target in targets)
    tracer.remove()
    assert all(_resolve(target)[2] is before[target] for target in targets)
