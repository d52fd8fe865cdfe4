"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload structural-scaling --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  With ``--trace 0``
the run prints every end-to-end metric; with ``--trace 1`` it runs the
workload with span wrappers installed around the program's public layer
functions and prints every per-layer metric instead (self time per op,
counters per op, tracing overhead), writing the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op's output passed its check.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import harness
from harness import OUT_DIR, end_to_end_metrics, format_result, run_metadata

WORKLOADS = ("structural-scaling", "fuzz-farm", "serve-mixed")


def _workload_module(name: str):
    if name == "structural-scaling":
        import wl_structural as module
    elif name == "fuzz-farm":
        import wl_fuzz as module
    else:
        import wl_serve as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the server it started is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    meta = run_metadata()
    meta["core"] = harness.pin_to_one_core()
    harness.use_source_tree()
    OUT_DIR.mkdir(exist_ok=True)
    module = _workload_module(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    started = time.time()
    result = module.run(args.seed, args.seconds, tracer)
    result.meta.update(meta)
    result.meta.update(workload=args.workload, seed=args.seed, trace=args.trace)

    if tracer is not None:
        from layers import per_layer_metrics

        extra = result.meta.pop("trace_extra")
        metrics = per_layer_metrics(
            tracer.self_times(), tracer.counts, result.meta["traced_ops"], extra
        )
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        result.meta["span_file"] = str(spans_path.relative_to(harness.ROOT))
    else:
        metrics = end_to_end_metrics(result)

    correct = not result.failures and result.failed == 0
    record = OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    result.meta["wall_s"] = time.time() - started
    record.write_text(
        json.dumps(
            {"meta": result.meta, "failures": result.failures,
             "metrics": {name: value for name, (value, _) in metrics.items()},
             "ops": [[op.input, op.latency_s, op.raw_s, op.ok] for op in result.ops]},
            indent=1,
        )
    )
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print("meta " + json.dumps(result.meta, sort_keys=True))
    print(format_result(correct, result.attempted, result.failed, metrics))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
