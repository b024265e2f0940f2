"""Outside-in spans around the public functions of each ``lbldg`` layer.

``Tracer.install`` replaces every binding of every traced function in every
loaded ``lbldg`` module, including names copied there by ``from ... import``
(``series.kernel_mul`` comes from ``_backend``; ``axioms.distance`` from
``symspace``), with a wrapper that records one span per call.  ``restore``
puts every original object back.  Nothing is wrapped unless ``install`` runs,
and only a traced run calls it.

A span is (name, start, end, parent, item).  Spans live in flat arrays for the
whole traced phase.  A span's self time is its duration minus the time its
child spans cover; calls are synchronous and single-threaded, so children are
disjoint and nested inside their parent, and "covered" is the sum of their
durations.
"""

import array
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> modules whose public functions form it.  The kernel is named by its
# two entry points, resolved through the series module that calls them.
LAYER_MODULES = {
    "series": ("lbldg.valfield.series",),
    "symspace": ("lbldg.symspace",),
    "building": ("lbldg.building",),
    "apartment": ("lbldg.apartment",),
    "linalg": ("lbldg.linalg",),
    "boundaries": ("lbldg.boundaries",),
    "harness": (
        "lbldg.harness.generators",
        "lbldg.harness.report",
        "lbldg.harness.axioms",
        "lbldg.harness.theorems",
        "lbldg.harness.search",
    ),
}
KERNEL_FUNCTIONS = ("kernel_add", "kernel_mul")
# every generator shares one span name: the layer map reads them as a group
GENERATORS_MODULE = "lbldg.harness.generators"

ROOT = -1
MARK = "__perfbench_span__"


def _error_kind(exc):
    from lbldg import errors

    if isinstance(exc, errors.PrecisionError):
        return "precision"
    return "typed" if type(exc).__module__ == errors.__name__ else "untyped"


def traced_functions():
    """{function object: span name} for every traced function."""
    out = {}
    for layer, modules in LAYER_MODULES.items():
        for modname in modules:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != modname
                ):
                    continue
                if modname == GENERATORS_MODULE:
                    out[obj] = "harness.generators"
                else:
                    out[obj] = f"{layer}.{attr}"
    series = importlib.import_module("lbldg.valfield.series")
    for attr in KERNEL_FUNCTIONS:
        fn = getattr(series, attr, None)
        if fn is not None:
            out[fn] = f"kernel.{attr}"
    return out


def lbldg_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "lbldg" or name.startswith("lbldg."))
    ]


def wrapped_bindings():
    """(module, attribute) pairs that currently hold a span wrapper."""
    return [
        (mod.__name__, attr)
        for mod in lbldg_modules()
        for attr, obj in list(vars(mod).items())
        if getattr(obj, MARK, False)
    ]


class Tracer:
    """Span recorder.  Use ``install``/``restore`` around the traced phase and
    set ``item`` to the id of the item being run."""

    def __init__(self):
        self.span_names = []
        self.name_ids = {}
        self.names = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.items = array.array("i")
        self.stack = [ROOT]
        self.item = ROOT
        self.counters = Counter()
        # exception object id -> (name, kind) of the innermost span it left;
        # the exceptions are kept alive so that their ids stay unique
        self.error_origin = {}
        self._errors_alive = []
        self.span_errors = Counter()
        self._saved = []

    # --- recording -------------------------------------------------------

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self.name_ids[name]

    def _exit_error(self, sid, exc):
        kind = _error_kind(exc)
        self.span_errors[(self.span_names[sid], kind)] += 1
        if id(exc) not in self.error_origin:
            self.error_origin[id(exc)] = (self.span_names[sid], kind)
            self._errors_alive.append(exc)

    def wrap(self, fn, name, after=None):
        sid = self.name_id(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, items, stack = self.parents, self.items, self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                tracer._exit_error(sid, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(span, MARK, True)
        return span

    # --- layer-specific counts -------------------------------------------

    def _after_kernel_mul(self, args, result):
        a, b = args
        self.counters["kernel.kernel_mul.term_products"] += len(a) * len(b)
        top = max(len(a), len(b), len(result))
        if top > self.counters["kernel.kernel_mul.max_terms"]:
            self.counters["kernel.kernel_mul.max_terms"] = top

    def _after_series_mul(self, args, result):
        a, b = args
        if a.floor is not None or b.floor is not None:
            self.counters["series.mul.floored"] += 1

    def _after_overlap(self, args, result):
        if result is None:
            self.counters["building.overlap_empty"] += 1

    def _counting_permutations(self, original):
        counters = self.counters

        def permutations(*args, **kwargs):
            for perm in original(*args, **kwargs):
                counters["building.perms_examined"] += 1
                yield perm

        setattr(permutations, MARK, True)
        return permutations

    # --- install / restore -----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = traced_functions()
        after = {
            "kernel.kernel_mul": self._after_kernel_mul,
            "series.mul": self._after_series_mul,
            "building.apartment_overlap": self._after_overlap,
        }
        wrappers = {
            fn: self.wrap(fn, name, after.get(name)) for fn, name in targets.items()
        }
        for mod in lbldg_modules():
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        building = sys.modules.get("lbldg.building")
        original = getattr(building, "permutations", None)
        if original is not None:
            self._saved.append((building, "permutations", original))
            building.permutations = self._counting_permutations(original)
        return len(self._saved)

    def restore(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    # --- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p != ROOT:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def by_name(self):
        """{span name: {"calls", "self_s"}} over every span."""
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, s in zip(self.names, self.self_times()):
            row = stats[self.span_names[sid]]
            row["calls"] += 1
            row["self_s"] += s
        return dict(stats)

    def count_inside(self, child_name, ancestor_name):
        """Spans named child_name that have an ancestor named ancestor_name."""
        cid = self.name_ids.get(child_name)
        aid = self.name_ids.get(ancestor_name)
        if cid is None or aid is None:
            return 0
        names, parents = self.names, self.parents
        hits = 0
        for i in range(len(names)):
            if names[i] != cid:
                continue
            p = parents[i]
            while p != ROOT and names[p] != aid:
                p = parents[p]
            hits += p != ROOT
        return hits

    def error_sites(self):
        """Counter of (innermost span name, error kind) over raised errors."""
        return Counter(self.error_origin.values())

    def dump(self, path, limit):
        """Write the first `limit` spans as JSON lines."""
        with open(path, "w") as fh:
            for i in range(min(limit, len(self.names))):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.span_names[self.names[i]],
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "item": self.items[i],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer):
    """Per-layer metrics named <layer>.<function>.<stat> (see README.md)."""
    stats = tracer.by_name()
    counters = tracer.counters
    out = {}
    for name, row in stats.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    for key in ("kernel.kernel_mul.term_products", "kernel.kernel_mul.max_terms",
                "building.perms_examined"):
        out[key] = counters[key]
    muls = stats.get("series.mul", {}).get("calls", 0)
    out["series.mul.floored_share"] = counters["series.mul.floored"] / muls if muls else 0.0
    overlaps = stats.get("building.apartment_overlap", {}).get("calls", 0)
    out["building.overlap_empty_share"] = (
        counters["building.overlap_empty"] / overlaps if overlaps else 0.0
    )
    inside = tracer.count_inside("apartment.wconvex_witness", "building.apartment_overlap")
    out["apartment.witness_per_overlap"] = inside / overlaps if overlaps else 0.0
    sites = tracer.error_sites()
    out["series.precision_errors"] = sum(
        n for (name, kind), n in sites.items()
        if kind == "precision" and name.startswith("series.")
    )
    for kind in ("precision", "untyped"):
        out[f"symspace.cartan_valuations.{kind}_errors"] = tracer.span_errors[
            ("symspace.cartan_valuations", kind)
        ]
    return out
