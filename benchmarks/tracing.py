"""Span tracing of topolab's layers, installed from outside the library.

Every public function of a layer module is replaced, in every ``topolab.*``
namespace that holds it, by a wrapper that records one span: name, start,
end, parent span and the time its child spans cover.  Generator functions
get one span per generator; its busy time is the sum of the intervals spent
inside ``next()``, and calls made during those intervals are its children.
Self time is busy time minus the time the child spans cover.

Spans stay in memory for one pass and are aggregated when the pass ends;
the spans of the last traced pass are written out when the run ends.  The
wrappers are installed for a traced pass and removed after it, so traced
and untraced passes can alternate in one run.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter
from functools import cached_property

LAYERS = (
    "spaces",
    "maps",
    "choice",
    "filters",
    "hyperspaces",
    "funcspaces",
    "finality",
    "suites",
    "cli",
)

# Methods traced besides the module-level functions, as (layer, class, attribute).
METHODS = (
    ("spaces", "FiniteSpace", "min_nbhds"),
    ("funcspaces", "FunctionSpace", "min_nbhds"),
    ("funcspaces", "FunctionSpace", "materialize"),
)

NAME, START, END, PARENT, CHILD, BUSY, ITEMS = range(7)

# Per-layer metrics, in report order: (name, unit).
LAYER_METRICS = (
    ("spaces.self_s", "s"),
    ("spaces.calls", "count"),
    ("spaces.cache_hit_ratio", "ratio"),
    ("spaces.is_compact_subset.calls", "count"),
    ("spaces.generate_from_subbase.self_s", "s"),
    ("maps.self_s", "s"),
    ("maps.all_maps.items", "count"),
    ("choice.self_s", "s"),
    ("choice.limit_set_P.calls", "count"),
    ("choice.filterwise_limit_set.calls", "count"),
    ("choice.enumerate_choice_functions.items", "count"),
    ("choice.cache_hit_ratio", "ratio"),
    ("filters.self_s", "s"),
    ("filters.enumerate_filters.items", "count"),
    ("hyperspaces.self_s", "s"),
    ("hyperspaces.compacts.self_s", "s"),
    ("hyperspaces.vietoris.self_s", "s"),
    ("hyperspaces.cache_hit_ratio", "ratio"),
    ("funcspaces.self_s", "s"),
    ("funcspaces.continuous_maps.self_s", "s"),
    ("funcspaces.continuous_ratio", "ratio"),
    ("funcspaces.min_nbhds.self_s", "s"),
    ("funcspaces.mu_embedding_report.self_s", "s"),
    ("finality.self_s", "s"),
    ("finality.candidates", "count"),
    ("finality.open_ratio", "ratio"),
    ("suites.self_s", "s"),
    ("suites.checks", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.spans", "count"),
)

# What the wrappers cannot see from outside the library.
UNMEASURED = (
    "time waiting on queues or locks: none exist, every workload runs in one thread with jobs=1",
    "failed or retried operations per layer: the library has no retries; raised checks count in `failed`",
    "private helpers (_union_closure, _hyper_converges, suites._inclusion_pair, ...) are not wrapped; "
    "their time is self time of the public caller",
    "bitsets helpers and FiniteMap methods (image_of, preimage_of, __post_init__) are not wrapped; "
    "FiniteMap objects built inside choice or funcspaces count as those layers' self time",
    "cache memory in bytes: only entry counts (cache_info) are visible",
)


class Tracer:
    """Span recorder plus the counters that need call results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def reset(self) -> tuple[list[list], Counter]:
        """Start a new pass; returns the spans and counters of the previous one."""
        spans, counters = self.spans[:], self.counters.copy()
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        return spans, counters

    def wrap_function(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                span[BUSY] = busy = end - span[START]
                if parent >= 0:
                    spans[parent][CHILD] += busy

        return traced

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, iterator):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        span = None
        index = -1
        try:
            while True:
                parent = stack[-1] if stack else -1
                start = clock()
                if span is None:
                    span = [name, start, start, parent, 0.0, 0.0, 0]
                    index = len(spans)
                    spans.append(span)
                stack.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    busy = end - start
                    span[END] = end
                    span[BUSY] += busy
                    if parent >= 0:
                        spans[parent][CHILD] += busy
                span[ITEMS] += 1
                yield item
        finally:
            iterator.close()


def _counting_adapters(counters: Counter) -> dict:
    """Adapters that read call results the spans alone cannot give."""

    def continuous_maps(fn):
        def call(dom, cod, *rest):
            misses = fn.cache_info().misses
            result = fn(dom, cod, *rest)
            if fn.cache_info().misses != misses:
                counters["funcspaces.maps_tried"] += cod.n ** dom.n
                counters["funcspaces.continuous"] += len(result)
            return result

        return call

    def final_over_projections(fn):
        def call(*args, **kwargs):
            setup = fn(*args, **kwargs)
            counters["finality.candidates"] += 1 << len(setup.family)
            counters["finality.opens"] += len(setup.computed.opens)
            return setup

        return call

    def final_from_discrete_sources(fn):
        def call(*args, **kwargs):
            space = fn(*args, **kwargs)
            counters["finality.candidates"] += 1 << space.n
            counters["finality.opens"] += len(space.opens)
            return space

        return call

    def run_suite(fn):
        def call(*args, **kwargs):
            report = fn(*args, **kwargs)
            counters["suites.checks"] += report.checked
            return report

        return call

    return {
        "funcspaces.continuous_maps": continuous_maps,
        "finality.final_over_projections": final_over_projections,
        "finality.final_from_discrete_sources": final_from_discrete_sources,
        "suites.run_suite": run_suite,
    }


def _layer_functions(module):
    """Public functions defined in ``module`` (lru_cache wrappers included)."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def instrument(tracer: Tracer):
    """Wrap every layer's public functions and METHODS.

    Returns a function that puts the originals back.
    """
    adapters = _counting_adapters(tracer.counters)
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"topolab.{layer}"]
        for attr, fn in _layer_functions(module):
            name = f"{layer}.{attr}"
            inner = adapters[name](fn) if name in adapters else fn
            if inspect.isgeneratorfunction(inspect.unwrap(fn)):
                replaced[id(fn)] = (fn, tracer.wrap_generator(name, inner))
            else:
                replaced[id(fn)] = (fn, tracer.wrap_function(name, inner))
    originals = []
    namespaces = [m for n, m in sys.modules.items() if n == "topolab" or n.startswith("topolab.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                originals.append((namespace, attr, value))
                setattr(namespace, attr, entry[1])
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"topolab.{layer}"], cls_name)
        member = cls.__dict__[attr]
        originals.append((cls, attr, member))
        name = f"{layer}.{attr}"
        if isinstance(member, cached_property):
            prop = cached_property(tracer.wrap_function(name, member.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, tracer.wrap_function(name, member))

    def restore() -> None:
        for owner, attr, value in originals:
            setattr(owner, attr, value)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[list], counters: Counter, cache_stats: dict, wall_s: float) -> dict:
    """Per-layer values of one traced pass.

    ``cache_stats`` maps a layer to its summed (hits, misses) over the
    layer's lru_cache functions at the end of the pass.
    """
    self_by_layer: Counter = Counter()
    self_by_name: Counter = Counter()
    calls_by_layer: Counter = Counter()
    calls_by_name: Counter = Counter()
    items_by_name: Counter = Counter()
    for span in spans:
        name = span[NAME]
        own = span[BUSY] - span[CHILD]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += own
        self_by_name[name] += own
        calls_by_layer[layer] += 1
        calls_by_name[name] += 1
        items_by_name[name] += span[ITEMS]

    def hit_ratio(layer: str) -> float:
        hits, misses = cache_stats.get(layer, (0, 0))
        return _ratio(hits, hits + misses)

    values = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    values.update(
        {
            "spaces.calls": calls_by_layer["spaces"],
            "spaces.cache_hit_ratio": hit_ratio("spaces"),
            "spaces.is_compact_subset.calls": calls_by_name["spaces.is_compact_subset"],
            "spaces.generate_from_subbase.self_s": self_by_name["spaces.generate_from_subbase"],
            "maps.all_maps.items": items_by_name["maps.all_maps"],
            "choice.limit_set_P.calls": calls_by_name["choice.limit_set_P"],
            "choice.filterwise_limit_set.calls": calls_by_name["choice.filterwise_limit_set"],
            "choice.enumerate_choice_functions.items": items_by_name["choice.enumerate_choice_functions"],
            "choice.cache_hit_ratio": hit_ratio("choice"),
            "filters.enumerate_filters.items": items_by_name["filters.enumerate_filters"],
            "hyperspaces.compacts.self_s": self_by_name["hyperspaces.compacts"],
            "hyperspaces.vietoris.self_s": self_by_name["hyperspaces.vietoris"],
            "hyperspaces.cache_hit_ratio": hit_ratio("hyperspaces"),
            "funcspaces.continuous_maps.self_s": self_by_name["funcspaces.continuous_maps"],
            "funcspaces.continuous_ratio": _ratio(
                counters["funcspaces.continuous"], counters["funcspaces.maps_tried"]
            ),
            "funcspaces.min_nbhds.self_s": self_by_name["funcspaces.min_nbhds"],
            "funcspaces.mu_embedding_report.self_s": self_by_name["funcspaces.mu_embedding_report"],
            "finality.candidates": counters["finality.candidates"],
            "finality.open_ratio": _ratio(counters["finality.opens"], counters["finality.candidates"]),
            "suites.checks": counters["suites.checks"],
            "trace.outside_s": wall_s - sum(self_by_layer.values()),
            "trace.spans": len(spans),
        }
    )
    return values


def idle_layers(spans: list[list]) -> set[str]:
    """Layers with no span in the pass (their metrics read 0 by idleness)."""
    seen = {span[NAME].split(".", 1)[0] for span in spans}
    return {layer for layer in LAYERS if layer not in seen}


def write_spans(path, spans: list[list]) -> None:
    """One JSON line per span: name, start and end (s from the first span), parent, self."""
    origin = spans[0][START] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(
                json.dumps(
                    [
                        span[NAME],
                        span[START] - origin,
                        span[END] - origin,
                        span[PARENT],
                        span[BUSY] - span[CHILD],
                    ]
                )
            )
            fh.write("\n")
