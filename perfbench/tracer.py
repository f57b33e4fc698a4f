"""Outside-in span tracing of the `frdlat` layers.

The tracer wraps functions of the `frdlat` modules from outside the
package: every public function a layer defines, plus the few private
helpers named in EXTRA.  Each wrapper replaces the original in every
`frdlat.*` namespace that holds it (module globals and module-level
dicts such as `cli.RUNNERS`), so calls made through a name imported
with `from .x import f` are traced too.  `uninstall` puts the originals
back, so traced and untraced invocations can alternate in one process.

A span is (id, name, start, end, parent id, thread id, thread CPU
seconds), kept in memory.  A span's parent is the innermost open span of
the same thread; spans opened in a worker thread (the sampler pool) have
no parent.  Spans in concurrent threads overlap in wall time, so their
thread CPU time is what adds up to a share of the process's work.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

import numpy as np

LAYERS = (
    "config", "lattice", "elliptic", "fields", "projector", "decomposition",
    "spectral", "verification", "sampling", "analyticity", "output", "cli",
)

# Module-level helpers traced although private: the RNG/colouring and the
# correlation FFT stages of sampling have no public boundary.
EXTRA = ("sampling._component_batch", "sampling._correlation_batch")

# Fields of a DecompositionResult whose arrays count toward result_mb.
RESULT_FIELDS = ("tables", "kernels", "symbols", "products")


def _array_bytes(obj, seen) -> int:
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x, seen) for x in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(obj, f), seen) for f in obj.__dataclass_fields__)
    return 0


def result_bytes(result) -> int:
    """Bytes of the distinct arrays held by a decomposition result's
    tables, kernels, symbols and products."""
    seen = set()
    return sum(_array_bytes(getattr(result, f, None), seen) for f in RESULT_FIELDS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.counters = Counter()
        self.maxima = {}
        self.broken = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self.wrapped = []
        self._hooks = {
            "projector.local_green_flat": self._count_rhs,
            "sampling._component_batch": self._count_fields,
            "decomposition.decompose": self._measure_result,
        }

    # -- argument and result hooks ------------------------------------

    def _count_rhs(self, bound, result):
        self.counters["projector.local_green_flat.rhs"] += (
            bound.arguments["g"].site_count * bound.arguments["factor"].m
        )

    def _count_fields(self, bound, result):
        self.counters["sampling.fields_drawn"] += int(bound.arguments["count"])

    def _measure_result(self, bound, result):
        mb = result_bytes(result) / 1e6
        self.maxima["decomposition.result_mb"] = max(
            self.maxima.get("decomposition.result_mb", 0.0), mb
        )

    # -- wrapping -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident(), cpu))
            if hook is not None:
                try:
                    hook(signature.bind(*args, **kwargs), result)
                except (TypeError, KeyError, AttributeError):
                    self.broken.add(name)
            return result

        return wrapper

    def targets(self):
        """(name, function) for every function this tracer wraps."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get("frdlat." + layer)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and name not in EXTRA:
                    continue
                out.append((name, obj))
        return out

    def install(self):
        targets = self.targets()
        self.wrapped = sorted(name for name, _ in targets)
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in targets}
        for modname, mod in list(sys.modules.items()):
            if modname != "frdlat" and not modname.startswith("frdlat."):
                continue
            namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, val in list(ns.items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patches.append((ns, key, val))
                        ns[key] = hit[1]

    def uninstall(self):
        for ns, key, val in reversed(self._patches):
            ns[key] = val
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.errors.clear()
        self.counters.clear()
        self.maxima.clear()

    # -- reduction ----------------------------------------------------

    def nested_total(self, name, ancestor) -> float:
        """Total duration of `name` spans opened inside an `ancestor` span."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, span_name, t0, t1, parent, tid, cpu in self.spans:
            if span_name != name:
                continue
            while parent is not None and by_id[parent][1] != ancestor:
                parent = by_id[parent][4]
            if parent is not None:
                total += t1 - t0
        return total

    def summary(self) -> dict:
        """Per name: calls, total_s, self_s (total minus the time of direct
        child spans in the same thread) and cpu_s (thread CPU time)."""
        child = Counter()
        for sid, name, t0, t1, parent, tid, cpu in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for sid, name, t0, t1, parent, tid, cpu in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
            row["cpu_s"] += cpu
        return out
