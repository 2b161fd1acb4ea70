"""Outside-in layer tracing: wraps the public functions of each unifan module
from the benchmark's side, so no file of the program changes.

A wrapper records one span per call: the function, the span that was open
when it was called (its parent), start and end times, whether it returned,
and for a few functions a detail of the call that a counter needs. Spans stay
in memory; `summarize` turns the spans of chosen fans into the per-layer
metrics.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# Layer (module) -> traced public functions.
LAYERS = {
    "linalg": [
        "feasible",
        "lattice_points",
        "solve_nonneg",
        "smith_normal_form",
        "invert_unimodular",
        "rational_rank",
        "q_independent",
    ],
    "fan": ["validate_fan", "is_complete"],
    "classgroup": ["class_group", "radiant_classes"],
    "radiance": ["find_bilateral"],
    "demazure": ["enumerate_roots", "choose_v", "mark_membership", "compute_precedence"],
    "monoid": ["gamma_of_rayset", "contains", "irreducibles", "is_free"],
    "orbits": [
        "enumerate_basic_subsets",
        "with_membership",
        "non_free_witness",
        "build_catalog",
    ],
    "pipeline": ["analyze_fan"],
    "families": ["build", "cross_check"],
    "coxspace": ["random_stratum_point", "apply_root", "apply_torus"],
    "cli": ["main", "load_fan_file", "build_report"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# What a span keeps beyond its times, for the counters.
_DETAIL = {
    "demazure.enumerate_roots": lambda args, result: len(result),
    "orbits.enumerate_basic_subsets": lambda args, result: len(result),
    "monoid.is_free": lambda args, result: args[0].generators,
}


class Tracer:
    """Span recorder. A span is (name id, parent span id or -1, start, end,
    returned, detail); its id is its index in `spans`."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Rebind every traced function in every loaded unifan module that
        holds it, the defining module included."""
        modules = [m for n, m in sys.modules.items() if n == "unifan" or n.startswith("unifan.")]
        for name_id, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"unifan.{mod}"), fn)
            wrapper = self._wrap(name_id, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name_id: int, name: str, original):
        spans, stack = self.spans, self._stack
        detail = _DETAIL.get(name)

        @wraps(original)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            returned, extra = False, None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
                if detail is not None:
                    extra = detail(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name_id, parent, start, end, returned, extra)

        return traced

    def reset(self) -> None:
        self.spans.clear()


def call_counts(spans, start: int, end: int) -> Counter:
    return Counter(NAMES[spans[i][0]] for i in range(start, end))


def summarize(spans, ranges) -> dict:
    """Per-layer metrics over the spans in the given [start, end) ranges.
    Self time is a span's duration minus the durations of its children;
    calls in one thread nest, so children never overlap."""
    calls = Counter()
    incl = Counter()
    child = Counter()
    candidates = unimodular = scanned = roots = basics = 0
    free_calls, free_gens = 0, set()
    find_bilateral = NAMES.index("radiance.find_bilateral")
    non_free_witness = NAMES.index("orbits.non_free_witness")
    for start, end in ranges:
        for i in range(start, end):
            name_id, parent, t0, t1, returned, extra = spans[i]
            name = NAMES[name_id]
            calls[name] += 1
            incl[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
            parent_id = spans[parent][0] if parent >= 0 else -1
            if name == "linalg.invert_unimodular" and parent_id == find_bilateral:
                candidates += 1
                unimodular += returned
            elif name == "monoid.is_free":
                free_calls += 1
                free_gens.add(extra)
                scanned += parent_id == non_free_witness
            elif name == "demazure.enumerate_roots":
                roots += extra or 0
            elif name == "orbits.enumerate_basic_subsets":
                basics += extra or 0
    self_time = Counter()
    for start, end in ranges:
        for i in range(start, end):
            name_id, _, t0, t1, _, _ = spans[i]
            self_time[NAMES[name_id]] += (t1 - t0) - child[i]
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.incl_s"] = (incl[name], "s")
        out[f"{name}.self_s"] = (self_time[name], "s")
    out["radiance.candidates"] = (candidates, "count")
    out["radiance.unimodular_ratio"] = (unimodular / candidates if candidates else 0.0, "ratio")
    out["demazure.roots"] = (roots, "count")
    out["monoid.is_free.distinct_ratio"] = (
        len(free_gens) / free_calls if free_calls else 0.0,
        "ratio",
    )
    out["orbits.basic_subsets"] = (basics, "count")
    out["orbits.cones_scanned"] = (scanned, "count")
    return out
