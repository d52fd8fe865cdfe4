"""The per-layer metric set of the traced run, named after the program's modules.

Span metrics (``*_s``) are self seconds per traced op; counters are per
traced op as well, so a run's length does not change them.  A layer that
does no work on a workload reports 0.
"""

from __future__ import annotations

from tracing import COUNTS, SPANS

#: the resolution counters a served or in-process pipeline reports
RESOLUTIONS = ("computed", "memory", "store")

#: per-layer metrics that come from somewhere other than a span or counter
EXTRA = {
    **{f"api.pipeline.{source}": ("count/op", "higher" if source != "computed" else "lower")
       for source in RESOLUTIONS},
    "api.store.hits": ("count/op", "higher"),
    "api.store.misses": ("count/op", "lower"),
    "api.store.lru_hits": ("count/op", "higher"),
    "api.server.http_s": ("s/op", "lower"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.failed": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
}


def per_layer_spec() -> dict:
    """name -> (unit, better) for every per-layer metric, in report order."""
    spec = {name: ("s/op", "lower") for name in SPANS}
    for name in COUNTS:
        spec[name] = ("count/op", "lower")
    spec.update(EXTRA)
    return spec


def per_layer_metrics(self_times: dict, counts: dict, traced_ops: int, extra: dict) -> dict:
    """Assemble every per-layer metric (name -> (value, unit))."""
    metrics = {}
    for name, (unit, _) in per_layer_spec().items():
        if name in extra:
            value = extra[name]
        elif name in SPANS:
            value = self_times.get(name, 0.0) / traced_ops
        elif name in COUNTS:
            value = counts.get(name, 0) / traced_ops
        else:
            value = 0
        metrics[name] = (value, unit)
    return metrics
