"""In-memory span recorder for a traced benchmark pass.

Every public function of the library's layer modules is wrapped once, and
the wrapper is installed at every binding site: the defining module, each
module that imported the name, and the package namespace.  Calls made
inside the library through a module global therefore pass the wrapper
too.  Each call records (name, start, end, parent) in flat arrays; self
times are derived at the end.  Garbage collection is timed through
``gc.callbacks`` and cache counts are read from ``cache_info()``.
"""

import functools
import gc
import inspect
from array import array
from time import perf_counter

LAYERS = ("perms", "algebra", "wiring", "plucker", "extremal", "membership",
          "oracle")

# Called so often that a span per call would dominate the trace; counted only.
COUNT_ONLY = {"plucker.check_relation", "plucker.trop_check_relation"}


def lru_caches(lib):
    """Every ``lru_cache`` object bound in the layer modules, by name."""
    out = {}
    for layer in LAYERS:
        mod = getattr(lib, layer)
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)):
                out.setdefault(f"{obj.__module__.split('.')[-1]}.{attr}", obj)
    return out


class Tracer:
    """Install with ``with Tracer(lib, package) as tr:``; the wrappers and
    the GC callback are removed on exit."""

    def __init__(self, lib, package):
        self.lib = lib
        self.package = package
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.collections = 0        # path collections enumerated
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = None
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.caches = lru_caches(lib)

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        sid = self.name_id.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        stack = self._stack
        names_a, parents_a = self.span_name, self.span_parent
        starts_a, ends_a = self.span_start, self.span_end
        tracer = self
        counts_results = name == "wiring.enumerate_path_collections"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names_a)
            names_a.append(sid)
            parents_a.append(stack[-1])
            ends_a.append(0.0)
            stack.append(idx)
            starts_a.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends_a[idx] = perf_counter()
                stack.pop()
            if counts_results:
                tracer.collections += len(out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _targets(self):
        """Map id(original function) -> (qualified name, function)."""
        found = {}
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if obj is None or inspect.isclass(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue        # a span would end before the work starts
                found[id(obj)] = (f"{layer}.{attr}", obj)
        return found

    def __enter__(self):
        targets = self._targets()
        wrappers = {}
        for key, (name, fn) in targets.items():
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            wrappers[key] = make(name, fn)
        sites = [getattr(self.lib, layer) for layer in LAYERS]
        sites += [self.lib.cli, self.package]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        gc.callbacks.append(self._on_gc)
        self.cache_before = {k: c.cache_info() for k, c in self.caches.items()}
        return self

    def __exit__(self, *exc):
        self.cache_after = {k: c.cache_info() for k, c in self.caches.items()}
        gc.callbacks.remove(self._on_gc)
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()
        return False

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += perf_counter() - self._gc_t0
            self._gc_t0 = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- results ----------------------------------------------------------

    def span_stats(self):
        """{name: (calls, self seconds)}; self time is the span minus the
        time its direct children cover."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, list] = {}
        for i in range(n):
            entry = stats.setdefault(self.names[self.span_name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += dur[i] - child[i]
        for name, calls in self.counts.items():
            stats.setdefault(name, [0, 0.0])[0] += calls
        return {k: (c, s) for k, (c, s) in stats.items()}

    def write(self, path):
        """All spans as tab-separated name, start, end, parent (seconds on
        the monotonic clock; parent -1 for a root span)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t"
                         f"{self.span_parent[i]}\n")
