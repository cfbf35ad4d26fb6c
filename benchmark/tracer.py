"""Outside-in tracer: spans around reachvol's public entry points.

The tracer rebinds each entry-point function object, in every ``reachvol.*``
namespace that holds it, to a wrapper that records a span (name, start,
end, parent, request, work).  Rebinding every namespace matters because
``cli`` and ``extensions`` import names with ``from .analytic import ...``.
Leaf helpers called once per subset get a call counter and no span.  Spans
stay in memory until the run ends.

A listed name that the package no longer has is reported as missing, and
the metrics that read only missing names are left out rather than failing.
"""

import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "reachvol"
ENTRY_POINTS = {
    "cli": ("main",),
    "model": ("load_model", "diagonalize", "classify_spectrum",
              "reachability_generators", "narrow_generators"),
    "analytic": ("full_volume", "analytic_volume_sum", "analytic_volume_terms",
                 "analytic_volume_sum_grouped", "recursive_volume_sum",
                 "infinite_volume_sum"),
    "extensions": ("narrow_volume_analytic", "negative_spectrum_volume",
                   "ct_volume_analytic", "ct_discretized_oracle", "narrow_via_relation"),
    "zonotope": ("symmetric_volume", "unit_cube_volume"),
    "factors": ("build_factor_report", "shape_factor", "side_lengths",
                "modal_controllability"),
}
# called once per subset term: counted, no span
LEAVES = {"analytic": ("sign_coefficient", "power_factor", "distribution_factor")}

EXPANSION = ("analytic.analytic_volume_sum", "analytic.analytic_volume_terms",
             "analytic.analytic_volume_sum_grouped", "extensions.narrow_volume_analytic",
             "extensions.ct_volume_analytic")
ZONOTOPE = ("zonotope.symmetric_volume", "zonotope.unit_cube_volume")
GENERATORS = ("model.reachability_generators", "model.narrow_generators")


def _size(x):
    return x.n if hasattr(x, "n") else np.asarray(x).size


def _subsets(args, kwargs):
    return 2 ** _size(args[0])


def _cells(args, kwargs):
    N = kwargs["N"] if "N" in kwargs else args[1]
    return int(N) * (2 ** _size(args[0]) - 1)


def _dets(args, kwargs):
    n, m = np.shape(args[0])
    return math.comb(m, n) if m >= n else 0


# work done by one call, derived from its arguments
WORK = {name: _subsets for name in EXPANSION}
WORK["analytic.recursive_volume_sum"] = _cells
WORK.update({name: _dets for name in ZONOTOPE})


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, request, work]
        self.leaf_calls = Counter()
        self.request = None
        self.missing = []
        self._stack = []
        self._patches = []

    def _span(self, name, fn):
        spans, stack, work_of = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            work = None
            if work_of is not None:
                try:
                    work = work_of(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          self.request, work])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _counter(self, name, fn):
        counts = self.leaf_calls

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for table, make in ((ENTRY_POINTS, self._span), (LEAVES, self._counter)):
            for layer, names in table.items():
                mod = sys.modules.get(f"{PACKAGE}.{layer}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if not callable(fn):
                        self.missing.append(f"{layer}.{name}")
                        continue
                    wrapper = make(f"{layer}.{name}", fn)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is fn:
                                setattr(m, attr, wrapper)
                                self._patches.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, n_requests, n_volumes):
    """Per-layer metrics from the spans of n_requests traced requests.

    n_volumes counts volumes asked for: one per volume request, one per
    sweep row.  Returns {name: (value, unit)}.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls, incl, self_t, work = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
    top_zono = Counter()
    for i, (name, t0, t1, parent, _, w) in enumerate(spans):
        calls[name] += 1
        incl[name] += t1 - t0
        self_t[name] += t1 - t0 - child[i]
        work[name] += w or 0
        if name in ZONOTOPE and (parent is None or spans[parent][0] not in ZONOTOPE):
            top_zono["calls"] += 1
            top_zono["time"] += t1 - t0
            top_zono["dets"] += w or 0

    def total(table, names):
        return sum(table[n] for n in names)

    R = n_requests
    REC = "analytic.recursive_volume_sum"
    exp_calls = total(calls, EXPANSION)
    exp_self = total(self_t, EXPANSION)

    def ms_per_call(name):
        return 1e3 * _ratio(incl[name], calls[name]), "ms", (name,)

    def calls_per_req(name):
        return _ratio(calls[name], R), "count", (name,)

    leaves = tuple(f"{k}.{n}" for k, v in LEAVES.items() for n in v)
    metrics = {
        "analytic.expansion_calls_per_volume": (_ratio(exp_calls, n_volumes), "count", EXPANSION),
        "analytic.expansion_subsets_per_req": (_ratio(total(work, EXPANSION), R), "count",
                                               EXPANSION),
        "analytic.expansion_ms_per_call": (1e3 * _ratio(exp_self, exp_calls), "ms", EXPANSION),
        "analytic.expansion_self_share": (_ratio(exp_self, incl["cli.main"]), "ratio", EXPANSION),
        "analytic.leaf_calls_per_req": (_ratio(sum(tracer.leaf_calls.values()), R), "count",
                                        leaves),
        "analytic.recursion_ms_per_call": ms_per_call(REC),
        "analytic.recursion_cells_per_req": (_ratio(work[REC], R), "count", (REC,)),
        "analytic.recursion_cells_per_s": (_ratio(work[REC], incl[REC]), "1/s", (REC,)),
        "analytic.dispatch_self_ms": (1e3 * _ratio(self_t["analytic.full_volume"],
                                                   calls["analytic.full_volume"]), "ms",
                                      ("analytic.full_volume",)),
        "model.diagonalize_calls_per_req": calls_per_req("model.diagonalize"),
        "model.classify_calls_per_req": calls_per_req("model.classify_spectrum"),
        "model.diagonalize_ms": ms_per_call("model.diagonalize"),
        "model.generators_ms_per_req": (1e3 * _ratio(total(incl, GENERATORS), R), "ms",
                                        GENERATORS),
        "cli.self_ms_per_req": (1e3 * _ratio(self_t["cli.main"], R), "ms", ("cli.main",)),
        "factors.report_ms_per_call": ms_per_call("factors.build_factor_report"),
        "extensions.narrow_ms_per_call": ms_per_call("extensions.narrow_volume_analytic"),
        "extensions.negative_ms_per_call": ms_per_call("extensions.negative_spectrum_volume"),
        "extensions.ct_analytic_ms_per_call": ms_per_call("extensions.ct_volume_analytic"),
        "extensions.ct_oracle_ms_per_call": ms_per_call("extensions.ct_discretized_oracle"),
        "zonotope.calls_per_req": (_ratio(top_zono["calls"], R), "count", ZONOTOPE),
        "zonotope.dets_per_req": (_ratio(top_zono["dets"], R), "count", ZONOTOPE),
        "zonotope.ms_per_call": (1e3 * _ratio(top_zono["time"], top_zono["calls"]), "ms",
                                 ZONOTOPE),
        "zonotope.dets_per_s": (_ratio(top_zono["dets"], top_zono["time"]), "1/s", ZONOTOPE),
    }
    missing = set(tracer.missing)
    return {k: (v, u) for k, (v, u, needs) in metrics.items()
            if not all(n in missing for n in needs)}


# entry points whose calls per request the detail line breaks down by class
PER_REQUEST = ("model.diagonalize", "model.classify_spectrum") + EXPANSION


def request_counts(tracer):
    """Calls of each PER_REQUEST entry point, per traced request: {request: Counter}."""
    out = defaultdict(Counter)
    for name, _, _, _, req, _ in tracer.spans:
        if name in PER_REQUEST:
            out[req][name] += 1
    return out
