"""Per-layer spans recorded from outside the program.

Modules bind names with ``from .x import y``, so a function can be reached
through several module globals.  ``Tracer.install`` replaces the function
in every ``trielem`` module that holds it and patches the ``Cyclotomic``
operators on the class itself; ``Tracer.remove`` puts the originals back.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are aggregated per name as they close, so memory
does not grow with the number of calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layer -> module-level functions, named "<layer>.<function>" in the output.
FUNCTIONS = {
    "cli": ("run",),
    "catalog": ("parse_expr",),
    "linalg": ("determinant", "signature", "smith_normal_form", "rational_inverse"),
    "lattice": (
        "lattice_from_dict",
        "discriminant_group",
        "discriminant_form",
        "forms_match_opposite",
        "milgram_holds",
    ),
    "classify": ("verify_pair", "table1_rows"),
    "isometry": (
        "short_vectors",
        "enumerate_isometries",
        "is_isometry",
        "order_of",
        "discriminant_action",
        "has_order3_trivial_on_A",
    ),
}
# Cyclotomic operators, aggregated into the single span name "cyclotomic".
CYCLOTOMIC_METHODS = ("root", "integer", "__add__", "__radd__", "__mul__", "__rmul__", "__eq__")
# Every public function of this module is aggregated into one span name.
AGGREGATED_MODULE = "fixed_locus"


def trielem_modules():
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("trielem.") and mod is not None
    }


def find_caches(modules) -> dict:
    """Every lru_cache wrapper defined in a trielem module, by
    "<module>.<function>", found by looking for ``cache_info``."""
    caches = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                caches[f"{short}.{attr}"] = obj
    return dict(sorted(caches.items()))


class Tracer:
    def __init__(self, modules, caches):
        self.modules = modules
        self.caches = caches
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [0.0]
        self._searching = 0
        self._form_misses = 0
        self._undo = []

    def reset(self):
        """Start a new pass: zero the counters; caches were just cleared."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self._form_misses = 0

    def _span(self, name, fn, after=None):
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replacement)
                    bound += 1
        return bound

    def _after_hooks(self):
        counts = self.counts
        form_cache = self.caches.get("lattice.discriminant_form")

        def vectors(result):
            counts["isometry.short_vectors.vectors"] += len(result)

        def elements(result):
            counts["isometry.enumerate_isometries.elements"] += len(result)
            if self._searching:
                counts["isometry.search.built"] += len(result)

        def examined(result):
            if self._searching:
                counts["isometry.search.examined"] += 1

        def form_elements(result):
            if form_cache is None:
                return
            misses = form_cache.cache_info().misses
            if misses > self._form_misses:
                counts["lattice.discriminant_form.elements"] += result.group.order
                self._form_misses = misses

        return {
            "isometry.short_vectors": vectors,
            "isometry.enumerate_isometries": elements,
            "isometry.order_of": examined,
            "lattice.discriminant_form": form_elements,
        }

    def install(self):
        hooks = self._after_hooks()
        for layer, names in FUNCTIONS.items():
            mod = self.modules[layer]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(mod, fn_name)
                wrapped = self._span(name, original, hooks.get(name))
                if name == "isometry.has_order3_trivial_on_A":
                    wrapped = self._search_scope(wrapped)
                if not self._rebind(original, wrapped):
                    raise RuntimeError(f"{name} is bound in no trielem module")
        mod = self.modules[AGGREGATED_MODULE]
        for attr, obj in list(vars(mod).items()):
            if (
                callable(obj)
                and not isinstance(obj, type)
                and not attr.startswith("_")
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                self._rebind(obj, self._span(AGGREGATED_MODULE, obj))
        cls = self.modules["cyclotomic"].Cyclotomic
        for attr in CYCLOTOMIC_METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._span("cyclotomic", raw.__func__))
            else:
                patched = self._span("cyclotomic", raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def _search_scope(self, fn):
        def search(*args, **kwargs):
            self._searching += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._searching -= 1

        return search

    def remove(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def snapshot(self) -> dict:
        """Per-layer metrics of the pass that just ended."""
        out = {}
        for layer, names in FUNCTIONS.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["cyclotomic.ops"] = self.calls.get("cyclotomic", 0)
        out["cyclotomic.self_s"] = self.self_s.get("cyclotomic", 0.0)
        out[f"{AGGREGATED_MODULE}.calls"] = self.calls.get(AGGREGATED_MODULE, 0)
        out[f"{AGGREGATED_MODULE}.self_s"] = self.self_s.get(AGGREGATED_MODULE, 0.0)
        for key in (
            "isometry.short_vectors.vectors",
            "isometry.enumerate_isometries.elements",
            "lattice.discriminant_form.elements",
        ):
            out[key] = self.counts.get(key, 0)
        built = self.counts.get("isometry.search.built", 0)
        examined = self.counts.get("isometry.search.examined", 0)
        out["isometry.search.examined_ratio"] = examined / built if built else 0.0
        return out


def cache_metrics(caches) -> dict:
    """hit_ratio per cache and the lattice module's entry count, read
    before the caches are cleared for the next pass."""
    out = {}
    entries = 0
    for name, fn in caches.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        if name.startswith("lattice."):
            entries += info.currsize
    out["lattice.cache_entries"] = entries
    return out
