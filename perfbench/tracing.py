"""Span tracing installed from outside the program, around its public calls.

The traced run wraps the functions and methods listed in :data:`SPANS`
(module path, then ``:``, then the qualified name) so that every call
records a span: id, parent span, layer metric, function name, op id,
start and end.  A layer's self time is its spans' duration minus the time
their child spans cover.  :data:`COUNTS` adds exact counters at the same
boundaries.

Module-level functions are imported by name all over the program, so a
wrapper replaces every binding of the original object in every loaded
``repro`` module; :meth:`Tracer.remove` restores each binding and then
verifies that no wrapper is left anywhere before any untraced timing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

_APPROX = "repro.structural.approximation:SignalRegionApproximation."

#: layer metric -> the public calls whose spans it sums (self time)
SPANS = {
    "petri.reachability_s": [
        "repro.petri.reachability:build_reachability_graph",
        "repro.petri.reachability:count_reachable_markings",
    ],
    "petri.smcover_s": [
        "repro.petri.smcover:compute_sm_components",
        "repro.petri.smcover:compute_sm_cover",
    ],
    "stg.encode_s": ["repro.stg.encoding:encode_reachability_graph"],
    "structural.concurrency_s": [
        "repro.structural.concurrency:compute_concurrency_relation"
    ],
    "structural.consistency_s": [
        "repro.structural.consistency:check_consistency_structural"
    ],
    "structural.qps_s": [
        "repro.structural.qps:compute_qps",
        "repro.structural.qps:compute_backward_place_sets",
    ],
    "structural.regions_s": ["repro.structural.approximation:approximate_signal_regions"]
    + [
        _APPROX + method
        for method in (
            "place_cover",
            "er_cover",
            "qr_cover",
            "br_cover",
            "ger_cover",
            "gqr_cover",
            "set_function_on_set",
            "set_function_off_set",
            "reset_function_on_set",
            "reset_function_off_set",
            "next_state_on_set",
            "next_state_off_set",
        )
    ],
    "structural.refine_s": ["repro.structural.refinement:refine_cover_functions"],
    "structural.csc_s": ["repro.structural.csc:check_csc_structural"],
    "boolean.minimize_s": [
        "repro.boolean.minimize:" + name
        for name in (
            "minimize_cover",
            "expand_cover",
            "irredundant_cover",
            "single_cube_cover",
            "remove_variables",
        )
    ],
    "synthesis.synthesize_s": ["repro.synthesis.engine:synthesize"],
    "synthesis.map_s": ["repro.synthesis.mapping:map_circuit"],
    "statebased.synthesize_s": ["repro.statebased.synthesis:synthesize_state_based"],
    "sat.synthesize_s": ["repro.sat.synthesize:exact_synthesize"],
    "sat.encode_s": [
        "repro.sat.encode:build_encoding",
        "repro.sat.encode:enumerate_implicants",
        "repro.sat.encode:add_counter",
        "repro.sat.encode:add_at_most",
    ],
    "sat.descent_s": ["repro.sat.synthesize:minimize_problem"],
    "sat.solve_s": ["repro.sat.solver:CDCLSolver.solve"],
    "gates.verify_mapped_s": ["repro.gates.verify:verify_mapped_netlist"],
    "corpus.generate_s": ["repro.corpus.generator:generate_spec"],
    "corpus.check_s": ["repro.corpus.checks:run_check_suite"],
    # the differential oracles the check suite compares against
    "corpus.oracles_s": [
        "repro.petri.reachability:_reference_build_reachability_graph",
        "repro.petri.reachability:_reference_count_reachable_markings",
        "repro.petri.reachability:_reference_concurrent_pairs_from_rg",
        "repro.petri.reachability:_reference_marking_sets_of_places",
        "repro.stg.encoding:_reference_encode_reachability_graph",
        "repro.stg.consistency:_reference_find_autoconcurrent_pairs",
        "repro.stg.consistency:_reference_find_semimodularity_violations",
        "repro.stg.consistency:_reference_adjacent_transition_pairs",
        "repro.statebased.coding:_reference_analyze_state_coding",
        "repro.gates.verify:_reference_verify_mapped_netlist",
    ],
    "api.backends.compare_s": ["repro.api.backends:compare"],
    **{
        f"api.pipeline.{stage}_s": [f"repro.api.pipeline:Pipeline.{stage}"]
        for stage in ("analyze", "refine", "synthesize", "map", "verify", "verify_mapped")
    },
    "api.store.get_s": ["repro.api.store:ArtifactStore.get"],
    "api.store.put_s": ["repro.api.store:ArtifactStore.put"],
    "api.server.service_s": ["repro.api.server:SynthesisService.synthesize"],
}


def _result_len(result) -> int:
    return result if isinstance(result, int) else len(result)


#: counter metric -> (call target, value added per call from its result)
COUNTS = {
    "petri.reachability_calls": [
        ("repro.petri.reachability:build_reachability_graph", None),
        ("repro.petri.reachability:count_reachable_markings", None),
    ],
    "petri.states": [
        ("repro.petri.reachability:build_reachability_graph", _result_len),
        ("repro.petri.reachability:count_reachable_markings", _result_len),
    ],
    "boolean.minimize_calls": [("repro.boolean.minimize:minimize_cover", None)],
    "sat.solve_calls": [("repro.sat.solver:CDCLSolver.solve", None)],
    "sat.clauses_added": [("repro.sat.solver:CDCLSolver.add_clause", None)],
    "sat.problems": [("repro.sat.synthesize:minimize_problem", None)],
    "gates.codes_checked": [
        ("repro.gates.verify:verify_mapped_netlist", lambda report: report.checked_codes)
    ],
}

#: the root span of one in-process benchmark op
OP = "op"

#: targets whose arguments name the benchmark op they serve: a served
#: request carries its op id in the JSON body, which the server ignores
OP_FROM_ARGS = {
    "repro.api.server:SynthesisService.synthesize": lambda args: args[1].get("bench_op", -1),
}


def _program_modules() -> list:
    """Every loaded module of the program under test."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


def _resolve(target: str):
    """(owner object, attribute name, original callable) of a target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span and counter recorder; one per traced run."""

    def __init__(self):
        #: (span id, parent id or 0, metric, name, op id, start, end)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings: list = []  # (owner, attr, original)
        self._wrappers: dict = {}  # id(wrapper) -> wrapper

    # -- recording ------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id: int) -> None:
        """Tag the calling thread's next spans with a benchmark op id."""
        self._local.op = op_id

    def _record(self, metric: str, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, metric, name, getattr(self._local, "op", -1), start, end)
            )

    def op(self, op_id: int, fn, *args, **kwargs):
        """Run one benchmark op under a root span."""
        self.set_op(op_id)
        return self._record(OP, OP, fn, args, kwargs)

    # -- installing and removing wrappers -------------------------------- #

    def _wrapper(self, original, name: str, metric, counters, op_of=None):
        record = self._record
        counts = self.counts

        if op_of is not None:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.set_op(op_of(args))
                return record(metric, name, original, args, kwargs)

        elif metric is None:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                for counter, value_of in counters:
                    counts[counter] += 1 if value_of is None else value_of(result)
                return result

        elif counters:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = record(metric, name, original, args, kwargs)
                for counter, value_of in counters:
                    counts[counter] += 1 if value_of is None else value_of(result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return record(metric, name, original, args, kwargs)

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every target, rebinding it wherever the program imported it."""
        plan: dict = {}
        for metric, targets in SPANS.items():
            for target in targets:
                plan.setdefault(target, [None, []])[0] = metric
        for counter, entries in COUNTS.items():
            for target, value_of in entries:
                plan.setdefault(target, [None, []])[1].append((counter, value_of))
        functions: dict = {}  # id(original) -> (original, wrapper)
        for target, (metric, counters) in plan.items():
            owner, attr, original = _resolve(target)
            wrapper = self._wrapper(
                original, target.split(":")[1], metric, counters, OP_FROM_ARGS.get(target)
            )
            if isinstance(owner, type):
                self._bind(owner, attr, original, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bind(module, attr, value, entry[1])

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every original binding and prove no wrapper survived."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        for module in _program_modules():
            for holder in [module, *vars(module).values()]:
                if holder is not module and not isinstance(holder, type):
                    continue
                for value in vars(holder).values():
                    if id(value) in self._wrappers and self._wrappers[id(value)] is value:
                        raise RuntimeError(
                            f"tracing wrapper left in {module.__name__}: {value.__name__}"
                        )

    # -- results --------------------------------------------------------- #

    def self_times(self) -> dict:
        """Self seconds per metric (span time minus its children's time)."""
        children: dict = defaultdict(float)
        for _, parent, _, _, _, start, end in self.spans:
            if parent:
                children[parent] += end - start
        totals: dict = defaultdict(float)
        for span_id, _, metric, _, _, start, end in self.spans:
            totals[metric] += (end - start) - children[span_id]
        return totals

    def attributed_share(self) -> float:
        """Share of the root spans' wall time that lies in their child spans.

        A root span is one op (in process) or one served request; the time
        it spends outside every wrapped layer call is not attributed.
        """
        children: dict = defaultdict(float)
        for _, parent, _, _, _, start, end in self.spans:
            if parent:
                children[parent] += end - start
        roots = [(span[0], span[6] - span[5]) for span in self.spans if not span[1]]
        return sum(children[span_id] for span_id, _ in roots) / sum(wall for _, wall in roots)

    def write(self, path, header: dict = None) -> None:
        """Write an optional header object, then one JSON line per span."""
        fields = ("id", "parent", "metric", "name", "op", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header or {}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def load_spans(path) -> tuple:
    """Read a span file back: (header, span tuples)."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = []
        for line in handle:
            row = json.loads(line)
            spans.append(
                (row["id"], row["parent"], row["metric"], row["name"], row["op"],
                 row["start"], row["end"])
            )
    return header, spans
