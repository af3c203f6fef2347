"""Per-layer trace of the brieskorn package, recorded from outside it.

`Tracer.install` replaces each public function or method named in PROBES
with a wrapper that records a span (name, start, end, parent, call id),
wherever a `brieskorn.*` module namespace or class binds that very object;
`uninstall` puts the originals back, so untraced passes run the package
untouched.  A span's self time is its duration minus that of its child
spans, and every probe charges its self time to one layer metric, so the
self times of one pass add up to the duration of its root spans (one per
`cli.main` call).

Counters are computed from the arguments and results of the wrapped calls.
The hot per-degree methods `BciModel.h0` and `PDDegreeModel.deg` are not
wrapped; the pinkham counters count their work instead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = "cli.main"
ROOT_METRIC = "cli.self_s"


@dataclass(frozen=True)
class Probe:
    module: str          # brieskorn submodule that defines the target
    name: str            # "function" or "Class.method"
    metric: str          # layer metric its self time is charged to
    count: object = None  # (args, kwargs, result, before) -> {counter: n}
    before: object = None  # args -> value handed to count


def _one(name):
    return lambda args, kwargs, result, before: {name: 1}


def _graph_built(args, kwargs, result, before):
    return {"graph.builds": 1, "graph.vertices": args[0].num_vertices}


def _laufer(args, kwargs, result, before):
    z = result.as_integers()
    return {"cycles.fundamental_calls": 1, "cycles.laufer_steps": sum(z) - len(z)}


def _expand_terms(args, kwargs, result, before):
    return {"numerics.expand_terms": args[1] if len(args) > 1 else kwargs["order"]}


def _apery_cached(args):
    return "_apery" in args[0].__dict__


def _apery_built(args, kwargs, result, before):
    sg = args[0]
    built = not before and "_apery" in sg.__dict__
    return {"numerics.apery_size": sg.generators[0] if built else 0}


def _pinkham(args, kwargs, result, before):
    pd = args[0].pd
    cutoff = pd.cutoff()
    return {"pdmodel.pinkham_terms": cutoff,
            "pdmodel.deg_arm_terms": cutoff * pd.arm_count()}


PROBES = (
    Probe("graph", "negative_definite", "graph.negdef_s"),
    Probe("graph", "ResolutionGraph.__init__", "graph.build_s", _graph_built),
    Probe("graph", "star_graph", "graph.build_s"),
    Probe("graph", "seifert_of_graph", "graph.build_s"),
    Probe("graph", "dual_cycle", "graph.solve_s", _one("graph.solves")),
    Probe("graph", "canonical_cycle", "graph.solve_s", _one("graph.solves")),
    Probe("graph", "is_numerically_gorenstein", "graph.solve_s"),
    Probe("cycles", "fundamental_cycle", "cycles.fundamental_s", _laufer),
    Probe("cycles", "minimal_cycle", "cycles.minimal_s"),
    Probe("cycles", "deg_on_central", "cycles.minimal_s"),
    Probe("cycles", "cycle_report", "cycles.report_s"),
    Probe("cycles", "arithmetic_genus", "cycles.report_s"),
    Probe("bci", "bci_data", "bci.data_s"),
    Probe("bci", "bci_seifert", "bci.data_s"),
    Probe("bci", "maximal_ideal_cycle", "bci.mcycle_s"),
    Probe("bci", "coordinate_cycle", "bci.mcycle_s"),
    Probe("bci", "hilbert_series", "bci.series_build_s", _one("bci.hilbert_calls")),
    Probe("numerics", "HilbertSeries.expand", "numerics.expand_s", _expand_terms),
    Probe("numerics", "pg_from_series", "numerics.pg_series_s"),
    Probe("numerics", "IntPolynomial.__mul__", "numerics.poly_s"),
    Probe("numerics", "IntPolynomial.divmod", "numerics.poly_s"),
    Probe("numerics", "IntPolynomial.exact_div", "numerics.poly_s"),
    Probe("numerics", "IntPolynomial.exact_div_one_minus_power", "numerics.poly_s"),
    Probe("numerics", "NumericalSemigroup.contains", "numerics.semigroup_s",
          _apery_built, _apery_cached),
    Probe("numerics", "NumericalSemigroup.frobenius", "numerics.semigroup_s",
          _apery_built, _apery_cached),
    Probe("numerics", "NumericalSemigroup.minimal_generators", "numerics.semigroup_s"),
    Probe("numerics", "minimal_generators", "numerics.semigroup_s"),
    Probe("pdmodel", "pinkham_pg", "pdmodel.pinkham_s", _pinkham),
    Probe("pdmodel", "pg_max", "pdmodel.pgmax_s"),
    Probe("pdmodel", "mz_criterion_weighted", "pdmodel.mz_s"),
    Probe("pdmodel", "z0_m0", "pdmodel.mz_s"),
    Probe("pdmodel", "multiplicity_bound", "pdmodel.multbound_s"),
)

TIME_METRICS = tuple(dict.fromkeys([p.metric for p in PROBES] + [ROOT_METRIC]))
COUNT_METRICS = ("graph.builds", "graph.vertices", "graph.solves",
                 "cycles.fundamental_calls", "cycles.laufer_steps",
                 "bci.hilbert_calls", "numerics.expand_terms",
                 "numerics.apery_size", "pdmodel.pinkham_terms",
                 "pdmodel.deg_arm_terms", "cli.output_bytes")


def _resolve(probe):
    obj = sys.modules["brieskorn." + probe.module]
    for part in probe.name.split("."):
        obj = getattr(obj, part)
    return obj


def _owners():
    """Every brieskorn module and every class defined in one."""
    owners = {}
    for name, mod in list(sys.modules.items()):
        if name == "brieskorn" or name.startswith("brieskorn."):
            owners[id(mod)] = mod
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("brieskorn"):
                    owners[id(value)] = value
    return list(owners.values())


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.spans = []      # [span name, start, end, parent index, call id]
        self.stack = []      # indices of the open spans
        self.counts = defaultdict(int)
        self.call_id = -1
        self._patched = []

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = _owners()
        for probe in PROBES:
            target = _resolve(probe)
            wrapper = self._wrap(target, probe)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is target:
                        setattr(owner, name, wrapper)
                        self._patched.append((owner, name, target))

    def uninstall(self):
        for owner, name, target in reversed(self._patched):
            setattr(owner, name, target)
        self._patched = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.call_id])
        self.stack.append(index)
        return index

    def _close(self, index, start):
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end

    def _wrap(self, fn, probe):
        name = "%s.%s" % (probe.module, probe.name)
        metric_of = METRIC_OF

        def traced(*args, **kwargs):
            before = probe.before(args) if probe.before else None
            # a call inside a span of the same layer adds no span: its time
            # would be charged to that layer either way
            nested = (self.stack and
                      metric_of[self.spans[self.stack[-1]][0]] == probe.metric)
            if nested:
                result = fn(*args, **kwargs)
            else:
                index = self._open(name)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index, start)
            if probe.count:
                for key, n in probe.count(args, kwargs, result, before).items():
                    self.counts[key] += n
            return result

        return traced

    def call(self, fn, argv):
        """Run one root call under a cli.main span."""
        self.call_id += 1
        index = self._open(ROOT)
        start = time.perf_counter()
        try:
            return fn(argv)
        finally:
            self._close(index, start)

    def take_pass(self, first_span):
        """Per-layer self times and counters of the spans recorded since
        first_span; resets the counters."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= first_span:
                child[span[3] - first_span] += span[2] - span[1]
        result = dict.fromkeys(TIME_METRICS, 0.0)
        call_s = 0.0
        for span, inner in zip(spans, child):
            duration = span[2] - span[1]
            result[METRIC_OF[span[0]]] += duration - inner
            if span[3] < 0:
                call_s += duration
        result["trace.call_s"] = call_s
        for key in COUNT_METRICS:
            result[key] = self.counts.get(key, 0)
        self.counts = defaultdict(int)
        return result

    def write(self, path):
        """All spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "call": call}) + "\n")


METRIC_OF = {"%s.%s" % (p.module, p.name): p.metric for p in PROBES}
METRIC_OF[ROOT] = ROOT_METRIC
