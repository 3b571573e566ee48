"""In-memory span tracing around the public functions of diracindex.

A Tracer wraps every public function of each layer module under every
module attribute that refers to it (``springer.linear_form_product``,
``sun1.poly_det``, ``suites.*``, the package namespace), plus the
MultiPoly and TruncatedSeries methods that carry the arithmetic.  Each
call records a span (name, start, end, parent) in flat arrays; self time
is derived afterwards as a span's duration minus its direct children.
``uninstall`` puts every original object back, so an untraced run sees
the program exactly as imported.

The lru_cache inventory is taken by introspection, so a cache added to
any diracindex module later is cleared and counted without changes here.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from array import array

LAYERS = (
    "groups",
    "polynomials",
    "weylaction",
    "kmodules",
    "series",
    "dirac",
    "asymptotics",
    "sun1",
    "springer",
    "emit",
)

# Short span names for the functions the per-layer metrics single out.
ALIASES = {
    "polynomials.MultiPoly.__mul__": "polynomials.mul",
    "polynomials.restrict_to_hyperplane": "polynomials.restrict",
    "polynomials.divide_by_linear_form": "polynomials.divide",
    "polynomials.divides_linear_form": "polynomials.divides",
    "polynomials.poly_det": "polynomials.det",
    "weylaction.weyl_dim_poly": "weylaction.dim_poly",
    "series.TruncatedSeries.__mul__": "series.mul",
    "series.TruncatedSeries.divide": "series.divide",
    "series.TruncatedSeries.exponential": "series.exponential",
}

# (class, attribute) pairs wrapped besides the module-level functions.
METHODS = {
    "polynomials": [("MultiPoly", "__mul__"), ("MultiPoly", "__rmul__")],
    "series": [
        ("TruncatedSeries", "__mul__"),
        ("TruncatedSeries", "divide"),
        ("TruncatedSeries", "exponential"),
    ],
}


def package_modules() -> list:
    """Every imported-or-importable module of the diracindex package."""
    pkg = importlib.import_module("diracindex")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"diracindex.{info.name}"))
    return mods


def _is_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def cache_inventory() -> dict[str, object]:
    """{'module.function': lru wrapper} for every cache in the package."""
    found: dict[int, tuple[str, object]] = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if _is_cache(obj):
                target = getattr(obj, "__wrapped__", obj)
                home = getattr(target, "__module__", mod.__name__)
                qual = f"{home.rsplit('.', 1)[-1]}.{getattr(target, '__name__', name)}"
                found.setdefault(id(obj), (qual, obj))
    return dict(sorted(found.values()))


class CacheStats:
    """Clears the package caches and adds up their cache_info counts from
    mark to collect, so only the timed region of each job counts: not the
    checks after it, and no cache_clear resets the totals."""

    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.hits: dict[str, int] = {name: 0 for name in caches}
        self.misses: dict[str, int] = {name: 0 for name in caches}
        self._marked: dict[str, object] = {}

    def clear(self) -> None:
        for fn in self.caches.values():
            fn.cache_clear()

    def mark(self) -> None:
        self._marked = {name: fn.cache_info() for name, fn in self.caches.items()}

    def collect(self) -> None:
        """Add the hits and misses since the last mark."""
        for name, fn in self.caches.items():
            info, before = fn.cache_info(), self._marked[name]
            self.hits[name] += info.hits - before.hits
            self.misses[name] += info.misses - before.misses

    def hit_ratio(self, layer: str) -> float:
        hits = sum(v for k, v in self.hits.items() if k.startswith(layer + "."))
        misses = sum(v for k, v in self.misses.items() if k.startswith(layer + "."))
        return hits / (hits + misses) if hits + misses else 0.0


def bound_functions() -> dict[tuple[str, str], object]:
    """Every callable bound in a package module or a wrapped class, by
    (owner, attribute); equal snapshots mean no wrapper is installed."""
    out = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if callable(obj):
                out[(mod.__name__, attr)] = obj
    for layer, methods in METHODS.items():
        mod = sys.modules[f"diracindex.{layer}"]
        for cls_name, attr in methods:
            out[(f"{mod.__name__}.{cls_name}", attr)] = getattr(mod, cls_name).__dict__[attr]
    return out


def _layer_functions(mod) -> dict[str, object]:
    """Public module-level functions (plain or lru-cached) defined in mod."""
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj) if _is_cache(obj) else obj
        if inspect.isfunction(target) and target.__module__ == mod.__name__:
            out[name] = obj
    return out


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.enabled = False
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def span(self, name: str, layer: str, fn, on_result=None):
        """Return a wrapper that records one span per call of fn."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack,
        )
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- installing ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, hooks: dict[str, object] | None = None,
                layer_hooks: dict[str, object] | None = None) -> None:
        """Wrap every layer's public functions wherever they are bound.

        hooks maps a span name, and layer_hooks a layer, to a callback
        that receives each result of the spans it names.
        """
        named = hooks or {}
        by_layer = layer_hooks or {}

        def hook_for(name: str, layer: str):
            found = [h for h in (by_layer.get(layer), named.get(name)) if h is not None]
            if len(found) < 2:
                return found[0] if found else None
            return lambda result: [hook(result) for hook in found]

        by_id: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"diracindex.{layer}"]
            for fname, fn in _layer_functions(mod).items():
                name = ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}")
                by_id[id(fn)] = self.span(name, layer, fn, hook_for(name, layer))
            for cls_name, attr in METHODS.get(layer, []):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if id(raw) in by_id:  # __rmul__ is the same function as __mul__
                    self._patch(cls, attr, by_id[id(raw)])
                    continue
                full = f"{layer}.{cls_name}.{attr}"
                name = ALIASES.get(full, full)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, layer, raw.__func__, hook_for(name, layer)))
                else:
                    wrapped = self.span(name, layer, raw, hook_for(name, layer))
                    by_id[id(raw)] = wrapped
                self._patch(cls, attr, wrapped)
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in by_id:
                    self._patch(mod, attr, by_id[id(obj)])

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time and call count."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for idx in range(n):
            p = parent[idx]
            if p >= 0:
                child[p] += end[idx] - start[idx]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        span_name = self.span_name
        for idx in range(n):
            nid = span_name[idx]
            self_s[nid] += end[idx] - start[idx] - child[idx]
            calls[nid] += 1
        by_name_s: dict[str, float] = {}
        by_name_n: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            by_name_s[name] = by_name_s.get(name, 0.0) + self_s[nid]
            by_name_n[name] = by_name_n.get(name, 0) + calls[nid]
        return by_name_s, by_name_n

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        self_s, calls = self.self_times()
        layer_of = dict(zip(self.names, self.layer_of))
        out_s = {layer: 0.0 for layer in LAYERS}
        out_n = {layer: 0 for layer in LAYERS}
        for name, s in self_s.items():
            layer = layer_of[name]
            if layer in out_s:
                out_s[layer] += s
                out_n[layer] += calls[name]
        return out_s, out_n
