"""In-memory span recorder around the allocation pipeline's layers.

The benchmark traces the pipeline from the outside: :func:`install`
wraps each layer's public function and rebinds *every* module-level
name in ``repro.*`` that refers to it, because the pipeline modules
import functions by name (``repro.partition.evaluate`` holds its own
``pace_partition``, ``repro.engine.session`` its own ``allocate`` ...).
Patching only the defining module would miss those call sites.
Methods (store hydrate/flush, ``Session.evaluate_point``) are patched
on their class, which every instance looks up.

A span is ``(id, parent id, layer, start, end, run id, value)``;
``value`` is the wrapped call's integer result for layers that count
something (the entries a store flush wrote), else ``None``.  Spans stay
in memory until :meth:`Tracer.dump` writes them out, and
:func:`summarize` reduces them to per-layer calls and self time (a
span's duration minus the time its child spans cover).
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (layer, defining module, function name) of every traced function.
FUNCTION_LAYERS = (
    ("apps.compile", "repro.apps.registry", "load_application"),
    ("core.search", "repro.core.exhaustive", "exhaustive_best_allocation"),
    ("core.iterate", "repro.core.iteration", "design_iteration"),
    ("core.allocate", "repro.core.allocator", "allocate"),
    ("core.select", "repro.core.module_selection",
     "allocate_with_selection"),
    ("partition.evaluate", "repro.partition.evaluate",
     "evaluate_allocation"),
    ("partition.bsb_costs", "repro.partition.model", "bsb_costs"),
    ("partition.pace", "repro.partition.pace", "pace_partition"),
    ("sched.list_schedule", "repro.sched.list_scheduler", "list_schedule"),
)

#: (layer, defining module, class, method) of every traced method.
METHOD_LAYERS = (
    ("engine.store.hydrate", "repro.engine.store", "CacheStore", "hydrate"),
    ("engine.store.flush", "repro.engine.store", "CacheStore", "flush"),
    ("service.evaluate_point", "repro.engine.session", "Session",
     "evaluate_point"),
)

LAYERS = tuple(entry[0] for entry in FUNCTION_LAYERS + METHOD_LAYERS)

#: Modules imported before patching so their by-name bindings exist.
_PIPELINE_MODULES = (
    "repro.engine.session",
    "repro.core.exhaustive",
    "repro.core.iteration",
    "repro.core.eca",
    "repro.partition.evaluate",
    "repro.partition.model",
    "repro.report.experiments",
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer, function):
        """``function`` with a span recorded around every call."""
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            value = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                if type(result) is int:
                    value = result
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, layer, start, end,
                              self.run_id, value))

        return traced

    def dump(self, path):
        """Write every recorded span to ``path`` as one JSON list."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def install(run_id):
    """Wrap every traced layer in this process; returns the tracer."""
    for name in _PIPELINE_MODULES:
        importlib.import_module(name)
    tracer = Tracer(run_id)
    for layer, module_name, attribute in FUNCTION_LAYERS:
        original = getattr(importlib.import_module(module_name), attribute)
        _rebind(original, tracer.wrap(layer, original))
    for layer, module_name, class_name, method in METHOD_LAYERS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method, tracer.wrap(layer, getattr(owner, method)))
    return tracer


def _rebind(original, wrapper):
    """Point every ``repro.*`` module-level name bound to ``original``
    at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = wrapper


def load(path):
    """The spans :meth:`Tracer.dump` wrote to ``path``."""
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def summarize(spans, window=None):
    """Per-layer ``{"calls", "total_s", "self_s", "value"}`` plus the
    search's candidate evaluations and the top-level covered time.

    ``search_evaluations`` counts the ``partition.evaluate`` spans that
    have a ``core.search`` span among their ancestors; ``top_level_s``
    sums the spans without a parent that start inside ``window`` (a
    ``(start, end)`` pair on the spans' clock; ``None`` takes all).
    """
    layers = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "value": 0} for layer in LAYERS}
    children = {}
    for span_id, parent, _, start, end, _, _ in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)
    parents = {span[0]: (span[1], span[2]) for span in spans}
    top_level_s = 0.0
    search_evaluations = 0
    for span_id, parent, layer, start, end, _, value in spans:
        duration = end - start
        entry = layers[layer]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children.get(span_id, 0.0)
        if value is not None:
            entry["value"] += value
        if not parent and (window is None
                           or window[0] <= start <= window[1]):
            top_level_s += duration
        if layer == "partition.evaluate":
            ancestor = parent
            while ancestor:
                ancestor, ancestor_layer = parents[ancestor]
                if ancestor_layer == "core.search":
                    search_evaluations += 1
                    break
    return {"layers": layers, "top_level_s": top_level_s,
            "search_evaluations": search_evaluations}
