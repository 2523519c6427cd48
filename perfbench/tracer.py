"""Outside-in tracer: wraps coarsetd's public functions from the outside.

Each traced function is replaced, in every coarsetd module that binds it
(the package re-exports names with ``from .x import y``, so patching only
the defining module would miss calls), by a wrapper that records a span:
name, start, end, parent span and instance id. Methods are wrapped on
their class. Self time is derived from the spans afterwards: a span's
duration minus the part covered by its child spans.

A target whose module or attribute no longer exists is skipped and listed
in ``Tracer.absent``; its metrics read zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "coarsetd"


def _exact_size(name):
    """Largest input size seen and, for solvers with a cap, the smallest
    cap - size headroom."""

    def make(fn):
        params = inspect.signature(fn).parameters
        default = params["cap"].default if "cap" in params else None

        def pre(counts, args, kwargs):
            n = args[0].n
            counts[f"{name}.max_n"] = max(counts.get(f"{name}.max_n", 0), n)
            if default is not None:
                cap = kwargs.get("cap", args[1] if len(args) > 1 else default)
                key = f"{name}.min_headroom"
                counts[key] = min(counts.get(key, cap - n), cap - n)

        return pre, None

    return make


def _distances_hits(fn):
    def pre(counts, args, kwargs):
        if getattr(args[0], "_distances", None) is not None:
            counts["graph.Graph.distances.hits"] += 1

    return pre, None


def _qi_pairs(fn):
    def pre(counts, args, kwargs):
        n = args[0].n
        counts["quasiiso.qi_constant.pairs"] += n * (n - 1) // 2

    return pre, None


def _exact_fallbacks(fn):
    def post(counts, args, kwargs, result):
        if getattr(result, "method", None) == "exact":
            counts["pipeline.bipartite_partition.exact_fallbacks"] += 1

    return None, post


def _parsed_bytes(name):
    def make(fn):
        def pre(counts, args, kwargs):
            counts[f"{name}.bytes"] += len(args[0].encode())

        return pre, None

    return make


def _emitted_bytes(name):
    def make(fn):
        def post(counts, args, kwargs, result):
            counts[f"{name}.bytes"] += len(result.encode())

        return None, post

    return make


# (module, qualified name, hook factory or None, leaf): a leaf calls no
# other traced function, so its total time equals its self time and only
# self_s is reported for it.
TARGETS = [
    ("graph", "Graph.__init__", None, True),
    ("graph", "Graph.distances", _distances_hits, False),
    ("graph", "single_source_distances", None, True),
    ("graph", "distances_from_set", None, True),
    ("graph", "induced_subgraph", None, False),
    ("graph", "power_graph", None, False),
    ("graph", "complement_graph", None, False),
    ("graph", "weak_diameter", None, False),
    ("exact", "maximum_independent_set", _exact_size("exact.maximum_independent_set"), True),
    ("exact", "minimum_dominating_set", _exact_size("exact.minimum_dominating_set"), True),
    ("exact", "k_coloring", _exact_size("exact.k_coloring"), True),
    ("decomposition", "validate_decomposition", None, True),
    ("decomposition", "centred_check", None, False),
    ("decomposition", "bag_metrics", None, False),
    ("quasiiso", "qi_constant", _qi_pairs, False),
    ("quasiiso", "compose", None, False),
    ("quasiiso", "pullback_decomposition", None, False),
    ("pipeline", "augment", None, False),
    ("pipeline", "bipartite_partition", _exact_fallbacks, False),
    ("pipeline", "quotient", None, False),
    ("pipeline", "quotient_map", None, False),
    ("pipeline", "push_decomposition", None, False),
    ("pipeline", "ind_to_tw", None, False),
    ("pipeline", "run_pipeline", None, False),
    ("simwidth", "simval", None, False),
    ("simwidth", "branch_width_sim", None, False),
    ("simwidth", "sim_to_td", None, False),
    ("simwidth", "dominating_partition", None, False),
    ("simwidth", "simwidth_pipeline", None, False),
    ("fileio", "parse_graph", _parsed_bytes("fileio.parse_graph"), False),
    ("fileio", "parse_td", _parsed_bytes("fileio.parse_td"), False),
    ("fileio", "parse_map", _parsed_bytes("fileio.parse_map"), True),
    ("fileio", "emit_td", _emitted_bytes("fileio.emit_td"), True),
    ("report", "Report.to_json", None, True),
    ("report", "digest", None, True),
]

# Counts kept next to the spans; each is reported per corpus pass.
EXTRA_COUNTS = [
    ("exact.maximum_independent_set.max_n", "vertices"),
    ("exact.maximum_independent_set.min_headroom", "vertices"),
    ("exact.minimum_dominating_set.max_n", "vertices"),
    ("exact.minimum_dominating_set.min_headroom", "vertices"),
    ("exact.k_coloring.max_n", "vertices"),
    ("quasiiso.qi_constant.pairs", "count"),
    ("pipeline.bipartite_partition.exact_fallbacks", "count"),
    ("fileio.parse_graph.bytes", "bytes"),
    ("fileio.parse_td.bytes", "bytes"),
    ("fileio.parse_map.bytes", "bytes"),
    ("fileio.emit_td.bytes", "bytes"),
]
# Extremes, not sums: not divided by the number of passes.
EXTREMES = {name for name, _ in EXTRA_COUNTS if name.endswith(("max_n", "min_headroom"))}


def span_name(module, qualname):
    return f"{module}.{qualname}"


def metric_units():
    """Every per-layer metric name the benchmark reports, with its unit."""
    units = {}
    for module, qualname, _, leaf in TARGETS:
        name = span_name(module, qualname)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if not leaf:
            units[f"{name}.total_s"] = "s"
    units["graph.Graph.distances.hit_ratio"] = "ratio"
    units["decomposition.validate_decomposition.calls_per_run"] = "calls/run"
    units.update(EXTRA_COUNTS)
    units["simwidth.bag_domination_6k_misses"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Span recorder over wrappers that are installed only while tracing.

    The wrappers record nothing unless ``active`` is set, so the benchmark
    can build inputs and check outputs between calls without tracing them.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.active = False
        self.instance = 0
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.absent = []
        self._restore = []

    def install(self):
        """Wrap every target at every binding; returns the absent names."""
        self.absent = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, qualname, hooks, _ in self.targets:
            name = span_name(module_name, qualname)
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(name)
                continue
            pre, post = hooks(original) if hooks else (None, None)
            wrapper = self._wrap(name, original, pre, post)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        return self.absent

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrap(self, name, fn, pre, post):
        tracer = self
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer.counts, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.instance)
            if post is not None:
                post(tracer.counts, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self):
        """Fold the recorded spans into per-name calls, self and total time.

        Total time counts only the outermost span of a name, so recursion
        through a traced function is not counted twice.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - covered[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                self.total_s[name] += duration
        spans.clear()

    def metrics(self, passes, instances):
        """Per-layer metrics per traced corpus pass (absent names read 0)."""
        values = {}
        for module, qualname, _, leaf in self.targets:
            name = span_name(module, qualname)
            values[f"{name}.calls"] = self.calls[name] / passes
            values[f"{name}.self_s"] = self.self_s[name] / passes
            if not leaf:
                values[f"{name}.total_s"] = self.total_s[name] / passes
        calls = self.calls["graph.Graph.distances"]
        values["graph.Graph.distances.hit_ratio"] = (
            self.counts["graph.Graph.distances.hits"] / calls if calls else 0.0
        )
        values["decomposition.validate_decomposition.calls_per_run"] = (
            self.calls["decomposition.validate_decomposition"] / instances
        )
        for name, _ in EXTRA_COUNTS:
            value = self.counts.get(name, 0)
            values[name] = value if name in EXTREMES else value / passes
        return values
