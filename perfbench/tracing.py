"""Outside-in tracing of ordim's layers.

``Tracer.install`` replaces each listed public function, at every module of
the ``ordim`` package that binds it, with a wrapper that records a span
(name, op id, parent span, start, end) and the function's work counters.
``uninstall`` puts the originals back. Nothing inside ordim changes: a call
is seen whenever it is resolved through a module attribute, which is how
ordim's modules call each other.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_columns(args, kwargs, result, tracer):
    columns = _arg(args, kwargs, 0, "columns")
    tracer.last_columns = len(columns)
    return {"columns": len(columns), "rows": _arg(args, kwargs, 1, "nrows")}


def _count_fdim(args, kwargs, result, tracer):
    support = len(result.realizer.weighted)
    # the last LP of a solve holds every generated column; a poset without
    # critical pairs needs no LP and has its one extension as the only column
    generated = tracer.last_columns if result.iterations else support
    tracer.last_columns = 0
    return {"iterations": result.iterations, "support": support,
            "columns_generated": generated}


# layer -> {function: counter}; a counter maps (args, kwargs, result, tracer)
# to increments of that function's work counters.
TRACED = {
    "geometry": {
        "validate_convex_geometry": lambda a, k, r, t: {"members": len(_arg(a, k, 0, "family"))},
        "geometry_critical_pairs": None,
        "vc_dimension_shattering": None,
        "check_boolean_property": None,
        "verify_convex_realizer": None,
    },
    "order": {
        "critical_pairs": None,
        "pair_digraph": None,
        "extend_reversing": None,
        "downset_lattice": lambda a, k, r, t: {"ideals": len(r)},
        "max_weight_reversal": lambda a, k, r, t: {"ideal_visits": len(_arg(a, k, 3, "ideals"))},
        "width": None,
        "standard_example_number": None,
        "max_down_degree": None,
    },
    "simplex": {
        "solve_covering": _count_columns,
    },
    "dimensions": {
        "analyze": None,
        "dm_dimension": lambda a, k, r, t: {"nodes": r.nodes},
        "convex_dimension": None,
        "fractional_dimension": _count_fdim,
        "randomized_distinguishing": lambda a, k, r, t: {"tries": r[1]},
        "verify_distinguishing": None,
        "distinguishing_to_realizer": None,
    },
    "certificates": {
        "verify_realizer": None,
        "verify_fractional_realizer": None,
        "realizer_from_reversible_classes": None,
    },
    "suite": {
        "run_instance": None,
        "rows_to_json": None,
    },
    "serialize": {
        "family_from_json": None,
        "report_to_json": None,
        "certificate_to_json": None,
        "certificate_from_json": None,
        "dumps": lambda a, k, r, t: {"bytes": len(r.encode())},
    },
    "constructions": {
        "jkn": None,
    },
}

# derived per-layer ratios: name -> (numerator counter, denominator counter)
RATIOS = {
    "dimensions.fractional_dimension.support_ratio":
        ("dimensions.fractional_dimension.support",
         "dimensions.fractional_dimension.columns_generated"),
    "dimensions.randomized_distinguishing.success_ratio":
        ("dimensions.randomized_distinguishing.calls",
         "dimensions.randomized_distinguishing.tries"),
}


class Tracer:
    def __init__(self):
        self.op = None              # id of the op being run, shared by its spans
        self.spans = []             # [name, op, parent index, start, end]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.last_columns = 0
        self._stack = []            # [span index, time covered by children]
        self._saved = []            # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append([name, self.op, parent[0] if parent else None, 0.0, 0.0])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[frame[0]]
                span[3], span[4] = start, end
                if parent:
                    parent[1] += end - start
                self_s[name] += end - start - frame[1]
                counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result, self).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"ordim.{layer}") for layer in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ordim" or n.startswith("ordim."))]
        for layer, functions in TRACED.items():
            home = homes[layer]
            for fname, counter in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# work counters reported besides calls
COUNTERS = [
    "geometry.validate_convex_geometry.members",
    "order.downset_lattice.ideals",
    "order.max_weight_reversal.ideal_visits",
    "simplex.solve_covering.columns",
    "simplex.solve_covering.rows",
    "dimensions.dm_dimension.nodes",
    "dimensions.fractional_dimension.iterations",
    "dimensions.fractional_dimension.columns_generated",
    "dimensions.randomized_distinguishing.tries",
    "serialize.dumps.bytes",
]


def metric_names() -> list:
    """Every per-layer metric name with its unit."""
    names = []
    for layer, functions in TRACED.items():
        for fname in functions:
            names.append((f"{layer}.{fname}.self_share", "ratio"))
            names.append((f"{layer}.{fname}.calls", "count"))
    names += [(key, "count") for key in COUNTERS]
    names += [(key, "ratio") for key in RATIOS]
    return names
